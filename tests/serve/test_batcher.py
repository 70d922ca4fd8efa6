"""BatchScheduler semantics and its interplay with the Coalescer.

The Coalescer collapses *identical* in-flight requests (one leader per
key); the BatchScheduler fuses *compatible* cold ones (same kind and
network, different dims) into ONE pool dispatch.  These tests pin the
contract between the two: for any concurrent mix of identical,
compatible, and incompatible requests the number of real backend
dispatches (``serve.backend_computations``) is exactly

    #compatibility-groups among *distinct* batchable requests
  + #distinct non-batchable requests

and every waiter receives the same payload a direct singleton
computation (:func:`repro.serve.compute.execute_request`) would have
produced — batching must never change an answer, only its cost.
"""

import asyncio
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import reset_chaos_handles
from repro.errors import ExperimentError
from repro.experiments.runner import RunPolicy
from repro.obs.metrics import REGISTRY
from repro.serve.app import ServeApp
from repro.serve.batcher import (
    BATCHABLE_KINDS,
    BatchPolicy,
    compatibility_key,
    fuse_requests,
)
from repro.serve.compute import execute_request
from repro.serve.loadtest import metric_total
from repro.serve.schemas import parse_request


@pytest.fixture(autouse=True)
def fresh_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
    reset_chaos_handles()
    yield
    reset_chaos_handles()


def drive(app, requests):
    """Run every request concurrently on one loop; preserve order."""

    async def scenario():
        return await asyncio.gather(
            *(app.serve_request(request) for request in requests)
        )

    return asyncio.run(scenario())


def make_app(window_ms=200.0, max_batch=32):
    return ServeApp(
        RunPolicy(retries=0),
        jobs=0,
        batching=BatchPolicy(window_ms=window_ms, max_batch=max_batch),
    )


def snapshot_delta(before, after, name):
    return metric_total(after, name) - metric_total(before, name)


class TestPolicy:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("window_ms", float("nan")),
            ("window_ms", float("inf")),
            ("window_ms", float("-inf")),
            ("window_ms", -1.0),
            ("max_batch", 0),
        ],
    )
    def test_bad_setting_rejected(self, field, value):
        with pytest.raises(ExperimentError, match=field):
            BatchPolicy(**{field: value})


class TestCompatibility:
    def test_same_network_different_dims_share_a_key(self):
        a = parse_request("dse", {"workload": "PV", "dims": [4, 8]})
        b = parse_request("dse", {"workload": "PV", "dims": [6]})
        c = parse_request("dse", {"workload": "LeNet-5", "dims": [4, 8]})
        assert compatibility_key(a) == compatibility_key(b)
        assert compatibility_key(a) != compatibility_key(c)

    def test_simulate_keys_include_the_arch(self):
        a = parse_request("simulate", {"workload": "PV", "dim": 4})
        b = parse_request("simulate", {"workload": "PV", "dim": 8})
        assert compatibility_key(a) == compatibility_key(b)

    def test_only_sweepable_kinds_are_batchable(self):
        assert BATCHABLE_KINDS == {"dse", "simulate"}

    def test_fused_request_key_covers_every_member(self):
        members = [
            parse_request("dse", {"workload": "PV", "dims": [4]}),
            parse_request("dse", {"workload": "PV", "dims": [6]}),
        ]
        fused = fuse_requests(members)
        assert fused.kind == "batch"
        assert fused.spec["members"] == [m.spec for m in members]
        # The fused key is order-sensitive over member keys: a different
        # member set must never alias a cached fused result.
        reordered = fuse_requests(list(reversed(members)))
        assert fused.key != reordered.key


class TestMixedConcurrency:
    """The hypothesis contract: exact dispatch count, per-waiter answers."""

    WORKLOADS = ("PV", "LeNet-5")
    DIM_SETS = ((4,), (6, 8), (12,))

    descriptors = st.lists(
        st.one_of(
            st.tuples(
                st.just("dse"),
                st.sampled_from(WORKLOADS),
                st.sampled_from(DIM_SETS),
            ),
            st.tuples(
                st.just("map"),
                st.sampled_from(WORKLOADS),
                st.sampled_from((4, 8)),
            ),
        ),
        min_size=1,
        max_size=8,
    )

    @staticmethod
    def to_request(descriptor):
        kind, workload, spec = descriptor
        if kind == "dse":
            return parse_request(
                "dse", {"workload": workload, "dims": list(spec)}
            )
        return parse_request("map", {"workload": workload, "dim": spec})

    @staticmethod
    def expected_dispatches(descriptors):
        distinct = set(descriptors)
        batch_groups = set()
        singleton_dispatches = 0
        for kind, workload, _ in distinct:
            if kind in BATCHABLE_KINDS:
                batch_groups.add((kind, workload))
            else:
                singleton_dispatches += 1
        return singleton_dispatches + len(batch_groups)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mix=descriptors)
    def test_exact_dispatch_count_and_per_waiter_results(self, mix):
        requests = [self.to_request(descriptor) for descriptor in mix]
        app = make_app()
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == self.expected_dispatches(mix)
        assert snapshot_delta(before, after, "serve.batch_failovers") == 0
        for payload, request in zip(payloads, requests):
            direct = execute_request(request.kind, request.spec)
            assert json.dumps(payload["result"]) == json.dumps(direct)


class TestWindowAndSeal:
    def test_single_member_settles_as_plain_singleton(self):
        request = parse_request("dse", {"workload": "PV", "dims": [4, 8]})
        app = make_app(window_ms=30.0)
        before = REGISTRY.snapshot()
        try:
            (payload,) = drive(app, [request])
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        # A batch of one pays no fusion: no batch counters move.
        assert snapshot_delta(before, after, "serve.batches") == 0
        assert snapshot_delta(before, after, "serve.batched") == 0
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 1
        assert payload["result"] == execute_request("dse", request.spec)

    def test_max_batch_seals_before_the_window_closes(self):
        requests = [
            parse_request("dse", {"workload": "PV", "dims": [4 + i]})
            for i in range(3)
        ]
        # A 30s window would time the test out unless max_batch seals.
        app = make_app(window_ms=30_000.0, max_batch=3)
        before = REGISTRY.snapshot()
        started = time.monotonic()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        assert time.monotonic() - started < 10.0
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 1
        assert snapshot_delta(before, after, "serve.batched") == 3
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 1
        for payload, request in zip(payloads, requests):
            assert payload["result"] == execute_request("dse", request.spec)

    def test_disabled_policy_dispatches_immediately(self):
        """The default policy (window 0) is off: concurrent compatible
        requests each get their own dispatch, and no batch opens."""
        requests = [
            parse_request("dse", {"workload": "PV", "dims": [4 + i]})
            for i in range(3)
        ]
        assert BatchPolicy() == BatchPolicy(window_ms=0.0, max_batch=16)
        app = ServeApp(RunPolicy(retries=0), jobs=0)
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 0
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 3
        for payload, request in zip(payloads, requests):
            assert payload["result"] == execute_request("dse", request.spec)

    def test_simulate_requests_fuse_too(self):
        requests = [
            parse_request("simulate", {"workload": "LeNet-5", "dim": dim})
            for dim in (4, 8)
        ]
        app = make_app()
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 1
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 1
        for payload, request in zip(payloads, requests):
            direct = execute_request("simulate", request.spec)
            assert json.dumps(payload["result"]) == json.dumps(direct)


class TestShutdownDuringWindow:
    def test_window_closing_after_shutdown_restarts_nothing(self):
        """A batch whose window is still open at ``shutdown()`` fails with
        "pool shut down" instead of dispatching when the window closes,
        which would restart the stopped pool and compute the request."""
        request = parse_request("dse", {"workload": "PV", "dims": [4, 8]})
        app = make_app(window_ms=50.0)
        before = REGISTRY.snapshot()

        async def scenario():
            served = asyncio.create_task(app.serve_request(request))
            await asyncio.sleep(0.005)
            app.shutdown()
            workers_at_shutdown = app.pool.worker_count
            (outcome,) = await asyncio.gather(served, return_exceptions=True)
            await asyncio.sleep(0.08)  # past the window's close
            return workers_at_shutdown, app.pool.worker_count, outcome

        try:
            at_shutdown, after_window, outcome = asyncio.run(scenario())
        finally:
            app.shutdown()
        assert (at_shutdown, after_window) == (0, 0)
        assert isinstance(outcome, ExperimentError)
        assert "pool shut down" in str(outcome)
        after = REGISTRY.snapshot()
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 0


class TestLeaderCrashFailover:
    def test_fused_crash_fails_over_to_per_member_singletons(
        self, monkeypatch
    ):
        """A one-shot ``worker_crash`` lands on the fused dispatch (the
        first pool execution); with zero pool retries the batch burns its
        only attempt, so the scheduler must fail over to per-member
        singleton dispatches — every waiter still gets its own correct
        answer, nothing surfaces as an error."""
        monkeypatch.setenv("REPRO_CHAOS", "worker_crash=1@1,seed=1")
        reset_chaos_handles()
        requests = [
            parse_request("dse", {"workload": "PV", "dims": [4 + i]})
            for i in range(4)
        ]
        app = make_app(window_ms=100.0)
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 1
        assert snapshot_delta(before, after, "serve.batch_failovers") == 1
        # One crashed fused attempt plus four singleton retries.
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 5
        for payload, request in zip(payloads, requests):
            assert payload["source"] == "computed"
            assert payload["result"] == execute_request("dse", request.spec)
