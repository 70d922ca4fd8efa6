"""End-to-end persistent caching: mapper, simulators, and experiments.

The store holds whole experiment results; a warm store reproduces
*exactly* what a cold run computes, and a damaged store silently
degrades to recomputation.  The mapper and the simulators persist
nothing: a fresh process re-derives the same mappings and closed forms.
"""

import pytest

from repro.accelerators import make_accelerator
from repro.arch import ArchConfig
from repro.cache import ResultCache, active_cache, reset_cache_handles
from repro.dataflow import map_network
from repro.dataflow.mapper import clear_mapping_cache
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
    return [
        path
        for entry_section, path in ResultCache(root)._entry_files()
        if entry_section == section
    ]


KINDS = ["systolic", "mapping2d", "tiling", "flexflow", "rowstationary"]
# Nine dead PEs: every kind degrades, none loses all its structures.
MASKED = ArchConfig(pe_mask=FaultModel(seed=3, dead_pe_rate=0.02).mask_for(16))


class TestMapperNotPersisted:
    """The mapping search is a per-process memo and nothing more."""

    @staticmethod
    def store_series():
        return [
            name
            for name in REGISTRY.snapshot()
            if name.startswith(("cache.lookups", "cache.writes"))
        ]

    def test_search_touches_no_store(self, cache_dir):
        from repro.dse import solve_per_layer
        from repro.experiments.common import evaluate_sweep

        network = get_workload("PV")
        REGISTRY.reset()
        cold = map_network(network, 16)
        masked = map_network(network, 16, mask=MASKED.pe_mask)
        evaluate_sweep(
            "contract",
            [(dim, "flexflow", network, ArchConfig().scaled_to(dim))
             for dim in (8, 16)],
        )
        solve_per_layer(network, 16)
        assert self.store_series() == []
        cache = active_cache()
        cache.drain()
        assert cache.stats()["sections"] == {}
        fresh_process_state()
        assert map_network(network, 16) == cold
        assert map_network(network, 16, mask=MASKED.pe_mask) == masked


class TestSimulatorTier:
    """Network results are closed forms over per-process mappings.

    Nothing is stored for a network simulation; a fresh process
    re-derives the cold result.
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

    def test_corrupt_entry_recomputes(self, cache_dir):
        """Simulations persist nothing, so a damaged store is exercised on
        the experiment entries a warm report reads instead."""
        from repro.experiments import run_experiment

        cold = run_experiment("table04")
        active_cache().drain()
        entries = store_files(cache_dir, "experiment")
        assert entries, "expected an experiment entry to corrupt"
        for path in entries:
            path.write_text(path.read_text()[:10])
        fresh_process_state()
        REGISTRY.reset()
        warm = run_experiment("table04")
        assert warm.rows == cold.rows
        assert REGISTRY.snapshot()[
            "cache.quarantined{section=experiment}"
        ] == len(entries)
        quarantined = cache_dir / ".quarantine" / "experiment"
        assert sorted(p.name for p in quarantined.iterdir()) == sorted(
            p.name for p in entries
        )


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
