"""End-to-end persistent caching: mapper, simulators, and experiments.

The store holds whole experiment results; a warm store reproduces
*exactly* what a cold run computes, and a damaged store silently
degrades to recomputation.  A supervised batch resumes from it: what
the store holds is read back without starting a worker.  The mapper
and the simulators persist nothing: a fresh process re-derives the
same mappings and closed forms.
"""

import multiprocessing
import os
import shutil

import pytest

from repro.accelerators import make_accelerator
from repro.arch import ArchConfig
from repro.cache import ResultCache, active_cache, reset_cache_handles
from repro.dataflow import map_network
from repro.dataflow.mapper import clear_mapping_cache
from repro.faults.model import FaultModel
from repro.nn.workloads import get_workload
from repro.obs.metrics import REGISTRY
from repro.serve.loadtest import metric_total


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
        from repro.experiments import _experiment_cache_key

        key_a = _experiment_cache_key("table04", ALL_EXPERIMENTS["table04"])
        key_b = _experiment_cache_key("table04", ALL_EXPERIMENTS["area"])
        assert key_a and key_b and key_a != key_b

    def test_builtin_keys_match_the_source_text_digest(self):
        """The key hashes the module file's bytes; for every built-in
        experiment that is the digest its ``inspect.getsource`` text
        gave, so no stored entry is orphaned."""
        import hashlib
        import inspect

        from repro.cache import hash_payload
        from repro.experiments import ALL_EXPERIMENTS, _experiment_cache_key

        for eid, module in ALL_EXPERIMENTS.items():
            source = inspect.getsource(module).encode("utf-8")
            expected = hash_payload(
                "experiment",
                {"id": eid, "source_sha": hashlib.sha256(source).hexdigest()},
            )
            assert _experiment_cache_key(eid, module) == expected, eid

    def test_sourceless_module_never_cached(self):
        import types

        from repro.experiments import _experiment_cache_key

        phantom = types.ModuleType("phantom_experiment")
        assert _experiment_cache_key("phantom", phantom) is None

    def test_report_text_independent_of_store_state(self, cache_dir):
        from repro.experiments.report import generate_report

        ids = ["table04", "area"]
        cold = generate_report(ids)
        fresh_process_state()
        warm = generate_report(ids)
        assert warm == cold

    def test_every_path_reads_back_the_same(self, cache_dir):
        """Each built-in experiment prints the same table, columns in the
        same order, whether computed, re-read from the memory tier or
        re-read from disk by a fresh handle."""
        from repro.experiments import ALL_EXPERIMENTS, run_experiment

        def shape(result):
            return result.format_table(), [list(row) for row in result.rows]

        ids = list(ALL_EXPERIMENTS)
        assert len(ids) == 26
        computed = {eid: shape(run_experiment(eid)) for eid in ids}
        REGISTRY.reset()
        memory = {eid: shape(run_experiment(eid)) for eid in ids}
        assert REGISTRY.snapshot()["cache.memo_hits{section=experiment}"] == 26
        reset_cache_handles()
        REGISTRY.reset()
        disk = {eid: shape(run_experiment(eid)) for eid in ids}
        snapshot = REGISTRY.snapshot()
        assert "cache.memo_hits{section=experiment}" not in snapshot
        assert snapshot["cache.lookups{outcome=hit,section=experiment}"] == 26
        for eid in ids:
            assert memory[eid] == computed[eid], eid
            assert disk[eid] == computed[eid], eid


def pool_attempts():
    return metric_total(REGISTRY.snapshot(), "pool.attempts")


class TestResilientRunnerSharing:
    def test_spawned_workers_share_the_store(self, cache_dir):
        """A supervised batch's worker writes the store this process
        reads, and a second batch reads it back without a worker."""
        from repro.experiments.runner import RunPolicy, run_resilient

        ids = ["table04", "area", "table03"]
        outcomes = run_resilient(ids, RunPolicy())
        assert all(o.result is not None and not o.error for o in outcomes)
        assert len(store_files(cache_dir, "experiment")) == len(ids)
        # A second batch restores every experiment from the shared store.
        fresh_process_state()
        REGISTRY.reset()
        again = run_resilient(ids, RunPolicy())
        for first, second in zip(outcomes, again):
            assert second.result.rows == first.result.rows
        assert pool_attempts() == 0
        assert "pool.workers" not in REGISTRY.snapshot()


class TestSupervisedResume:
    """The store is how a supervised batch resumes."""

    def test_warm_batch_starts_no_worker(self, cache_dir):
        from repro.experiments import ALL_EXPERIMENTS, run_batch
        from repro.experiments.runner import RunPolicy

        ids = list(ALL_EXPERIMENTS)
        first = run_batch(ids, RunPolicy())
        fresh_process_state()
        REGISTRY.reset()
        resumed = run_batch(ids, RunPolicy(timeout_s=300))
        assert [o.result.format_table() for o in resumed] == [
            o.result.format_table() for o in first
        ]
        snapshot = REGISTRY.snapshot()
        assert snapshot["cache.lookups{outcome=hit,section=experiment}"] == 26
        assert pool_attempts() == 0
        assert multiprocessing.active_children() == []

    def test_corrupt_entry_is_recomputed(self, cache_dir):
        """A damaged entry is a miss in this process: only its experiment
        goes to the worker, and the worker's run replaces it."""
        from repro.experiments import run_batch
        from repro.experiments.runner import RunPolicy

        (cold,) = run_batch(["table04"], RunPolicy())
        (entry,) = store_files(cache_dir, "experiment")
        entry.write_text(entry.read_text()[:10])
        fresh_process_state()
        REGISTRY.reset()
        (outcome,) = run_batch(["table04"], RunPolicy(timeout_s=300))
        assert outcome.ok
        assert outcome.result.format_table() == cold.result.format_table()
        assert pool_attempts() == 1
        assert REGISTRY.snapshot()[
            "cache.quarantined{section=experiment}"
        ] == 1
        assert len(store_files(cache_dir, "experiment")) == 1

    def test_edited_experiment_reruns(self, cache_dir, tmp_path, monkeypatch):
        """Editing an experiment's source between two supervised batches
        re-runs it: its entry key digests the module file, so the first
        batch's entry never stands for the edited code."""
        from repro.experiments import (
            ALL_EXPERIMENTS,
            PLUGIN_ENV,
            _experiment_cache_key,
        )
        from repro.experiments.runner import RunPolicy, run_resilient

        # The built-in ``area`` experiment from an editable copy of its
        # module: a plugin entry overrides the built-in id, here and in
        # the pool's worker.
        source = tmp_path / "repro_test_area_copy.py"
        shutil.copyfile(ALL_EXPERIMENTS["area"].__file__, source)
        (tmp_path / "repro_test_area_plugin.py").write_text(
            "import repro_test_area_copy\n"
            "EXTRA = {'area': repro_test_area_copy}\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv(PLUGIN_ENV, "repro_test_area_plugin:EXTRA")
        monkeypatch.setenv(
            "PYTHONPATH",
            str(tmp_path) + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        old_title = "Layout area at the 16x16 scale"
        new_title = "Edited layout area at the 16x16 scale"

        (first,) = run_resilient(["area"], RunPolicy())
        assert old_title in first.result.format_table()
        text = source.read_text()
        assert old_title in text
        source.write_text(text.replace(old_title, new_title))

        # A fresh process: no store handle, no memoized keys.
        _experiment_cache_key.cache_clear()
        fresh_process_state()
        REGISTRY.reset()
        (second,) = run_resilient(["area"], RunPolicy())
        assert new_title in second.result.format_table()
        assert pool_attempts() == 1
        assert len(store_files(cache_dir, "experiment")) == 2
