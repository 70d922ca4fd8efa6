"""Exporter tests: Chrome trace schema."""

import json

from repro.obs.export import (
    parity_report,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer


def _sample_tracer() -> Tracer:
    t = Tracer()
    with t.span("conv:C1", category="sim.flexflow", labels={"engine": "tile"}) as sp:
        sp.set_cycles(100)
        sp.add_counters({"mac_ops": 640})
        with t.span("phase:compute", category="sim.flexflow") as inner:
            inner.set_cycles(80)
            t.event("checkpoint", labels={"at": "mid"})
    return t


class TestChromeTrace:
    def test_document_is_valid(self):
        doc = to_chrome_trace(_sample_tracer())
        assert validate_chrome_trace(doc) == []

    def test_spans_become_complete_events_with_args(self):
        doc = to_chrome_trace(_sample_tracer())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["conv:C1", "phase:compute"]
        layer = complete[0]
        assert layer["args"]["cycles"] == 100
        assert layer["args"]["mac_ops"] == 640
        assert layer["args"]["engine"] == "tile"
        assert layer["cat"] == "sim.flexflow"

    def test_events_become_instants(self):
        doc = to_chrome_trace(_sample_tracer())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["checkpoint"]
        assert instants[0]["args"] == {"at": "mid"}

    def test_metadata_names_the_process(self):
        doc = to_chrome_trace(_sample_tracer(), process_name="myproc")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "myproc"

    def test_write_produces_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_tracer(), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc) == []

    def test_timestamps_relative_and_nonnegative(self):
        doc = to_chrome_trace(_sample_tracer())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == 0.0
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["document must be a JSON object"]

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents must be an array"]

    def test_flags_missing_fields_and_bad_phase(self):
        doc = {"traceEvents": [{"ph": "Q", "name": "x", "pid": 0, "tid": 0}]}
        problems = validate_chrome_trace(doc)
        assert any("unexpected phase" in p for p in problems)

    def test_flags_complete_event_without_duration(self):
        doc = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(doc))


class TestProjections:
    def test_parity_report_matches_parity_trees(self):
        t = _sample_tracer()
        assert parity_report(t) == [t.roots[0].parity_tree()]
