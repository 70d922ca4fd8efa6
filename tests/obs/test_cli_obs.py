"""Golden-output tests for ``repro trace`` and ``repro profile``."""

import json

import pytest

from repro.cli import main
from repro.nn import get_workload
from repro.obs.export import validate_chrome_trace
from repro.obs.profile import format_breakdown
from tests.sim_oracle import trace_workload_per_pe

#: The committed LeNet-5 breakdown at dim 8 — deterministic, path-
#: independent, and a tripwire for silent cycle-model changes.
LENET_DIM8_GOLDEN = [
    "layer  load  compute  drain  bus_words  nbuf_rd  nbuf_wr  kbuf_rd"
    "   ls_rd  ls_wr  occupancy",
    "   C1   147     2940    588      52230    52080     4704      150"
    "  235200  53280      0.625",
    "   C3   447     5000    200       4752     2352     1600     2400"
    "  480000  21216      0.750",
    "total: 9322 pipeline cycles (594 load, 7940 compute, 788 drain),"
    " mean occupancy 0.688",
]


class TestTraceCommand:
    def test_golden_breakdown(self, capsys):
        assert main(["trace", "LeNet-5", "--dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "LeNet-5 on a 8x8 array:" in out
        for line in LENET_DIM8_GOLDEN:
            assert line in out

    def test_engines_print_identical_tables(self, capsys):
        """The tile engine prints the table the per-PE machine gives."""
        assert main(["trace", "PV", "--dim", "8"]) == 0
        reference = trace_workload_per_pe(get_workload("PV"), 8)
        assert capsys.readouterr().out == format_breakdown(reference) + "\n"

    def test_engine_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "PV", "--engine", "tile"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(
            ["trace", "LeNet-5", "--dim", "8", "-o", str(path)]
        ) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"conv:C1", "phase:load", "phase:compute"} <= names
        convs = [e for e in doc["traceEvents"] if e["name"].startswith("conv:")]
        assert [e["name"] for e in convs] == ["conv:C1", "conv:C3"]

    def test_unknown_workload_errors_cleanly(self, capsys):
        assert main(["trace", "NoSuchNet"]) == 1
        assert "neither a known workload" in capsys.readouterr().err

    def test_unwritable_output_errors_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "t.json"
        assert main(
            ["trace", "LeNet-5", "--dim", "8", "-o", str(target)]
        ) == 1
        assert "cannot write trace" in capsys.readouterr().err

    def test_fc_only_network_rejected(self, tmp_path, capsys):
        path = tmp_path / "fc.net"
        path.write_text("network FCOnly\ninput 1 8\nfc F1 out 4\n")
        assert main(["trace", str(path)]) == 1
        assert "no CONV layers" in capsys.readouterr().err


class TestProfileCommand:
    # table04 maps four small workloads — the fastest experiment that
    # exercises mapper spans and cache metrics.

    def test_report_structure(self, capsys):
        assert main(["profile", "table04"]) == 0
        out = capsys.readouterr().out
        assert "profile of experiment 'table04':" in out
        assert "wall time:" in out
        assert "hottest spans" in out
        assert "profile:table04" in out
        # The mapper participates through the ambient tracer; cache
        # counts depend on process history, so assert only presence.
        assert "metrics:" in out
        assert "mapper." in out
        # The memo line covers both mapping memos and the network-result
        # memo on top of them.
        memo_line = next(
            line for line in out.splitlines()
            if line.startswith("mapping cache:")
        )
        for memo in ("map_layer", "map_network", "simulate_network"):
            assert f" {memo} " in memo_line

    def test_trace_file_valid(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["profile", "table04", "-o", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc) == []

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["profile", "not-an-experiment"])
