"""Zero-overhead guards: a disabled tracer must cost effectively nothing.

Two layers of guarantee:

* structural — with no tracer installed, the simulators record no
  spans, allocate nothing, and hand out the shared no-op span;
* granularity — instrumentation sites fire per layer/phase/group, never
  per simulated cycle or MAC, so even the *enabled* cost is bounded by
  the group count.  (The wall-clock guard lives in the CI perf check:
  ``capture_baseline.py --check`` compares speedup ratios that would
  collapse if the sim loop grew per-cycle instrumentation.)
"""

import time

import repro.obs.tracer as tracer_mod
from repro.arch import ArchConfig
from repro.nn import ConvLayer, make_inputs, make_kernels
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Tracer, current_tracer
from repro.sim import FlexFlowFunctionalSim
from tests.sim_oracle import FlexFlowPerPELoop

LAYER = ConvLayer("t", in_maps=3, out_maps=8, out_size=6, kernel=3)


def _run(tracer=None, sim=FlexFlowFunctionalSim):
    machine = sim(ArchConfig(array_dim=8), tracer=tracer)
    return machine.run_layer(LAYER, make_inputs(LAYER), make_kernels(LAYER))


class TestDisabledTracerIsStructurallyFree:
    def test_default_run_records_no_spans(self):
        assert current_tracer() is NULL_TRACER
        _run()
        assert NULL_TRACER.roots == []

    def test_explicit_disabled_tracer_records_no_spans(self):
        off = Tracer(enabled=False)
        _run(tracer=off)
        _run(tracer=off, sim=FlexFlowPerPELoop)
        assert off.roots == []
        assert list(off.iter_spans()) == []

    def test_disabled_span_sites_share_the_singleton(self):
        off = Tracer(enabled=False)
        contexts = [off.span(f"s{i}") for i in range(3)]
        spans = [ctx.__enter__() for ctx in contexts]
        for ctx in contexts:
            ctx.__exit__(None, None, None)
        assert all(span is NULL_SPAN for span in spans)

    def test_outputs_identical_with_and_without_tracing(self):
        out_plain, trace_plain = _run()
        out_traced, trace_traced = _run(tracer=Tracer())
        assert (out_plain == out_traced).all()
        assert trace_plain.as_dict() == trace_traced.as_dict()


class TestInstrumentationGranularity:
    def test_span_sites_scale_with_groups_not_cycles(self, monkeypatch):
        calls = {"n": 0}
        original = Tracer.span

        def counting_span(self, name, category="", labels=None):
            calls["n"] += 1
            return original(self, name, category, labels)

        monkeypatch.setattr(tracer_mod.Tracer, "span", counting_span)
        t = Tracer()
        _, trace = _run(tracer=t)
        groups = len(t.roots[0].children[1].children)
        # One layer span, three phase spans, one span per m0 group —
        # and nothing proportional to the cycle or MAC count.
        assert calls["n"] == 4 + groups
        assert trace.cycles > calls["n"] * 5

    def test_disabled_wall_cost_is_small(self):
        # Coarse smoke bound, deliberately loose to stay robust on noisy
        # CI machines: the disabled-tracer run must not be wildly slower
        # than a second identical disabled-tracer run (no hidden
        # accumulation of spans or state across runs).
        _run()  # warm caches
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            _run()
            samples.append(time.perf_counter() - start)
        assert min(samples) > 0
        assert max(samples) < min(samples) * 50
