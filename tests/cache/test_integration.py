"""End-to-end persistent caching: mapper, simulators, and experiments.

Every tier has the same contract — a warm store reproduces *exactly*
what a cold run computes, and a damaged store silently degrades to
recomputation.  The simulators persist nothing of their own: their
closed forms are re-derived over the stored mappings.
"""

import json

import pytest

from repro.accelerators import make_accelerator
from repro.arch import ArchConfig
from repro.cache import active_cache, reset_cache_handles
from repro.dataflow import map_network
from repro.dataflow.mapper import clear_mapping_cache
from repro.errors import ConfigurationError
from repro.faults.model import FaultModel
from repro.nn.workloads import get_workload
from repro.obs.metrics import REGISTRY


def fresh_process_state():
    """Forget all in-process memos, as a new process would."""
    clear_mapping_cache()
    reset_cache_handles()


@pytest.fixture(autouse=True)
def _clean_memos():
    fresh_process_state()
    yield
    fresh_process_state()


def store_files(root, section):
    if not (root / section).is_dir():
        return []
    return sorted((root / section).glob("*/*.json"))


class TestMapperTier:
    def test_warm_mapping_identical_to_cold(self, cache_dir):
        network = get_workload("LeNet-5")
        cold = map_network(network, 16)
        assert store_files(cache_dir, "map_network"), "expected a write"
        fresh_process_state()
        warm = map_network(network, 16)
        assert warm == cold

    def test_restore_counts_as_store_hit(self, cache_dir):
        network = get_workload("PV")
        map_network(network, 16)
        fresh_process_state()
        REGISTRY.reset()
        map_network(network, 16)
        hits = [
            name
            for name in REGISTRY.snapshot()
            if name.startswith("cache.lookups")
            and "map_network" in name
            and "outcome=hit" in name
        ]
        assert hits, "expected a store hit on the warm mapping"

    def test_corrupt_entry_falls_back_to_search(self, cache_dir):
        network = get_workload("PV")
        cold = map_network(network, 16)
        for path in store_files(cache_dir, "map_network"):
            path.write_text("{broken")
        fresh_process_state()
        assert map_network(network, 16) == cold

    def test_tampered_factors_are_rejected(self, cache_dir):
        # An entry whose factors violate Eq. 1 must not be trusted.
        network = get_workload("PV")
        cold = map_network(network, 16)
        for path in store_files(cache_dir, "map_network"):
            entry = json.loads(path.read_text())
            for layer in entry["payload"]["layers"]:
                layer["factors"]["tm"] = 10_000
            path.write_text(json.dumps(entry))
        fresh_process_state()
        assert map_network(network, 16) == cold


KINDS = ["systolic", "mapping2d", "tiling", "flexflow", "rowstationary"]
# Nine dead PEs: every kind degrades, none loses all its structures.
MASKED = ArchConfig(pe_mask=FaultModel(seed=3, dead_pe_rate=0.02).mask_for(16))


class TestSimulatorTier:
    """Network results are closed forms over the persisted mappings.

    Nothing is stored under ``simulate_network``; a fresh process
    re-derives the cold result, and only FlexFlow's mapping search is
    read back from the store.
    """

    @staticmethod
    def assert_rederived(cache_dir, kind, config):
        network = get_workload("PV")
        cold = make_accelerator(
            kind, config, workload_name="PV"
        ).simulate_network(network)
        active_cache().drain()
        assert not (cache_dir / "simulate_network").exists()
        fresh_process_state()
        warm = make_accelerator(
            kind, config, workload_name="PV"
        ).simulate_network(network)
        assert warm == cold

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_network_result_identical(self, cache_dir, kind):
        self.assert_rederived(cache_dir, kind, ArchConfig())

    @pytest.mark.parametrize("kind", KINDS)
    def test_fault_masked_result_identical(self, cache_dir, kind):
        self.assert_rederived(cache_dir, kind, MASKED)

    def test_flexflow_rederivation_hits_the_mapping(self, cache_dir):
        network = get_workload("PV")
        make_accelerator("flexflow", ArchConfig()).simulate_network(network)
        fresh_process_state()
        REGISTRY.reset()
        make_accelerator("flexflow", ArchConfig()).simulate_network(network)
        hits = [
            value
            for name, value in REGISTRY.snapshot().items()
            if name.startswith("cache.lookups")
            and "map_network" in name
            and "outcome=hit" in name
        ]
        assert hits == [1]

    def test_config_change_misses(self, cache_dir):
        network = get_workload("PV")
        acc = make_accelerator("flexflow", ArchConfig(), workload_name="PV")
        acc.simulate_network(network)
        n_before = len(store_files(cache_dir, "map_network"))
        scaled = make_accelerator(
            "flexflow", ArchConfig().scaled_to(8), workload_name="PV"
        )
        scaled.simulate_network(network)
        assert len(store_files(cache_dir, "map_network")) == n_before + 1
        assert not (cache_dir / "simulate_network").exists()

    def test_corrupt_entry_recomputes(self, cache_dir):
        network = get_workload("PV")
        acc = make_accelerator("tiling", ArchConfig(), workload_name="PV")
        cold = acc.simulate_network(network)
        for path in store_files(cache_dir, "simulate_network"):
            path.write_text("not json at all")
        fresh_process_state()
        acc = make_accelerator("tiling", ArchConfig(), workload_name="PV")
        assert acc.simulate_network(network) == cold


class TestExperimentTier:
    def test_warm_experiment_identical(self, cache_dir):
        from repro.experiments import run_experiment

        cold = run_experiment("table04")
        active_cache().drain()
        assert store_files(cache_dir, "experiment"), "expected a write"
        fresh_process_state()
        warm = run_experiment("table04")
        assert warm.rows == cold.rows
        assert warm.format_table() == cold.format_table()

    def test_key_salted_by_module_source(self):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.runner import _experiment_cache_key

        key_a = _experiment_cache_key("table04", ALL_EXPERIMENTS["table04"])
        key_b = _experiment_cache_key("table04", ALL_EXPERIMENTS["area"])
        assert key_a and key_b and key_a != key_b

    def test_sourceless_module_never_cached(self):
        import types

        from repro.experiments.runner import _experiment_cache_key

        phantom = types.ModuleType("phantom_experiment")
        assert _experiment_cache_key("phantom", phantom) is None

    def test_report_text_independent_of_store_state(self, cache_dir):
        from repro.experiments.report import generate_report

        ids = ["table04", "area"]
        cold = generate_report(ids)
        fresh_process_state()
        warm = generate_report(ids)
        assert warm == cold


class TestResilientRunnerSharing:
    def test_spawned_workers_share_the_store(self, cache_dir):
        """--jobs N workers read/write one directory without conflicts."""
        from repro.experiments.runner import RunPolicy, run_resilient

        ids = ["table04", "area", "table03"]
        outcomes = run_resilient(ids, RunPolicy(jobs=3))
        assert all(o.result is not None and not o.error for o in outcomes)
        assert len(store_files(cache_dir, "experiment")) == len(ids)
        # A second batch restores every experiment from the shared store.
        fresh_process_state()
        again = run_resilient(ids, RunPolicy(jobs=3))
        for first, second in zip(outcomes, again):
            assert second.result.rows == first.result.rows

    def test_prewarm_skips_without_two_sharers(self, cache_dir):
        from repro.experiments.runner import prewarm_shared_points

        assert prewarm_shared_points(["table04", "fig15"]) == 0
        assert prewarm_shared_points(["fig15", "fig16"]) > 0

    def test_prewarm_noop_when_cache_off(self, monkeypatch):
        from repro.experiments.runner import prewarm_shared_points

        monkeypatch.setenv("REPRO_CACHE", "off")
        assert active_cache() is None
        assert prewarm_shared_points(["fig15", "fig16"]) == 0
