"""Tests for the resilient experiment runner.

The crash/hang/flaky experiments are injected into real ``spawn`` worker
processes through the ``REPRO_EXPERIMENTS_PLUGIN`` environment variable:
a plugin module is written to a temp directory that is placed on
``sys.path`` (spawn children inherit the parent's ``sys.path`` through
the preparation data) and named via the environment, which crosses the
process boundary.
"""

import json
import os
import sys
import textwrap
import time

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import (
    PLUGIN_ENV,
    RunOutcome,
    RunPolicy,
    experiment_registry,
    require_all_ok,
    result_from_dict,
    result_to_dict,
    run_resilient,
)

PLUGIN_SOURCE = """
import os
import time

from repro.experiments.common import ExperimentResult


class _Good:
    @staticmethod
    def run():
        return ExperimentResult("good_exp", "A good experiment", [{"x": 1}])


class _Crash:
    @staticmethod
    def run():
        os._exit(17)


class _Raise:
    @staticmethod
    def run():
        raise RuntimeError("deliberate experiment failure")


class _Hang:
    @staticmethod
    def run():
        time.sleep(300)


class _Columns:
    @staticmethod
    def run():
        return ExperimentResult(
            "cols_exp", "Columns", [{"zeta": 1, "alpha": 2}]
        )


class _Pid:
    @staticmethod
    def run():
        return ExperimentResult(
            "pid_exp", "Worker pid", [{"pid": os.getpid()}]
        )


class _Flaky:
    @staticmethod
    def run():
        marker = os.environ["REPRO_TEST_FLAKY_MARKER"]
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("attempted")
            os._exit(3)
        return ExperimentResult("flaky_exp", "Flaky", [{"ok": True}])


EXTRA = {
    "good_exp": _Good,
    "crash_exp": _Crash,
    "raise_exp": _Raise,
    "hang_exp": _Hang,
    "flaky_exp": _Flaky,
    "cols_exp": _Columns,
    "pid_a": _Pid,
    "pid_b": _Pid,
    "pid_c": _Pid,
    "pid_d": _Pid,
}
"""


@pytest.fixture
def plugin(tmp_path, monkeypatch):
    """Install the fake-experiment plugin for this process and its workers."""
    (tmp_path / "repro_test_fake_exps.py").write_text(
        textwrap.dedent(PLUGIN_SOURCE)
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv(PLUGIN_ENV, "repro_test_fake_exps:EXTRA")
    monkeypatch.setenv(
        "PYTHONPATH",
        str(tmp_path) + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    return tmp_path


class TestRegistry:
    def test_plugin_experiments_visible(self, plugin):
        registry = experiment_registry()
        assert "good_exp" in registry
        assert "fig16" in registry  # built-ins still present

    def test_bad_plugin_spec_rejected(self, monkeypatch):
        monkeypatch.setenv(PLUGIN_ENV, "no_such_module_xyz:EXTRA")
        with pytest.raises(ConfigurationError, match="cannot load"):
            experiment_registry()

    def test_plugin_spec_without_attr_rejected(self, monkeypatch):
        monkeypatch.setenv(PLUGIN_ENV, "just_a_module")
        with pytest.raises(ConfigurationError):
            experiment_registry()


class TestRunPolicy:
    def test_defaults_valid(self):
        policy = RunPolicy()
        assert policy.jobs == 1 and policy.retries == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"retries": -1},
            {"backoff_s": -0.1},
            {"max_backoff_s": 0.0},
            {"max_backoff_s": -2.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunPolicy(**kwargs)

    def test_retry_delay_doubles_then_caps(self):
        policy = RunPolicy(backoff_s=0.25, max_backoff_s=2.0)
        delays = [policy.retry_delay(attempt) for attempt in range(1, 7)]
        assert delays == [0.25, 0.5, 1.0, 2.0, 2.0, 2.0]

    def test_retry_delay_zero_backoff_stays_zero(self):
        policy = RunPolicy(backoff_s=0.0)
        assert [policy.retry_delay(a) for a in (1, 5, 20)] == [0.0, 0.0, 0.0]

    def test_retry_delay_default_cap_bounds_deep_attempts(self):
        policy = RunPolicy(backoff_s=1.0)  # default max_backoff_s = 30.0
        assert policy.retry_delay(3) == 4.0
        assert policy.retry_delay(10) == 30.0
        assert policy.retry_delay(60) == 30.0  # no overflow blowup either


class TestSerialization:
    def test_result_roundtrip(self):
        result = ExperimentResult("id", "Title", [{"a": 1.5}], notes="n")
        assert result_from_dict(result_to_dict(result)) == result


class TestFailFast:
    def test_unknown_id_raises_before_spawning(self, plugin):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_resilient(["good_exp", "nope"], RunPolicy())

    def test_duplicate_ids_rejected(self, plugin):
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_resilient(["good_exp", "good_exp"], RunPolicy())


class TestSupervision:
    def test_good_experiment_succeeds(self, plugin):
        (outcome,) = run_resilient(["good_exp"], RunPolicy())
        assert outcome.ok
        assert outcome.result.rows == [{"x": 1}]
        assert outcome.attempts == 1

    def test_crashing_worker_reported_not_raised(self, plugin):
        (outcome,) = run_resilient(["crash_exp"], RunPolicy(backoff_s=0.0))
        assert outcome.status == "failed"
        assert "exitcode" in outcome.error

    def test_raising_worker_carries_traceback(self, plugin):
        (outcome,) = run_resilient(["raise_exp"], RunPolicy(backoff_s=0.0))
        assert outcome.status == "failed"
        assert "deliberate experiment failure" in outcome.error

    def test_hanging_worker_times_out(self, plugin):
        (outcome,) = run_resilient(
            ["hang_exp"], RunPolicy(timeout_s=1.0, backoff_s=0.0)
        )
        assert outcome.status == "timeout"
        assert "wall clock" in outcome.error

    def test_crash_does_not_sink_the_batch(self, plugin):
        outcomes = run_resilient(
            ["good_exp", "crash_exp"], RunPolicy(jobs=2, backoff_s=0.0)
        )
        assert [o.experiment_id for o in outcomes] == ["good_exp", "crash_exp"]
        assert outcomes[0].ok
        assert outcomes[1].status == "failed"

    def test_retry_recovers_flaky_experiment(self, plugin, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "flaky.marker")
        )
        (outcome,) = run_resilient(
            ["flaky_exp"], RunPolicy(retries=2, backoff_s=0.01)
        )
        assert outcome.ok
        assert outcome.attempts == 2

    def test_retries_exhausted_records_every_attempt(self, plugin):
        (outcome,) = run_resilient(
            ["crash_exp"], RunPolicy(retries=1, backoff_s=0.01)
        )
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "attempt 1" in outcome.error and "attempt 2" in outcome.error


class TestWorkerPool:
    def test_workers_reused_across_the_batch(self, plugin):
        """Four experiments at jobs=2 run on (at most) two workers, not
        one interpreter per experiment."""
        outcomes = run_resilient(
            ["pid_a", "pid_b", "pid_c", "pid_d"], RunPolicy(jobs=2)
        )
        assert all(o.ok for o in outcomes)
        pids = {o.result.rows[0]["pid"] for o in outcomes}
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_no_worker_outlives_a_batch(self, plugin):
        import multiprocessing

        run_resilient(["good_exp", "pid_a"], RunPolicy(jobs=2))
        assert multiprocessing.active_children() == []
        (crashed,) = run_resilient(["crash_exp"], RunPolicy(backoff_s=0.0))
        assert crashed.status == "failed"
        assert multiprocessing.active_children() == []
        (hung,) = run_resilient(
            ["hang_exp"], RunPolicy(timeout_s=1.0, backoff_s=0.0)
        )
        assert hung.status == "timeout"
        assert multiprocessing.active_children() == []


class TestCheckpoints:
    def test_checkpoint_written_and_resumed(self, plugin, tmp_path):
        run_dir = str(tmp_path / "run")
        (first,) = run_resilient(["good_exp"], RunPolicy(run_dir=run_dir))
        assert not first.from_checkpoint
        assert (tmp_path / "run" / "good_exp.json").is_file()

        (second,) = run_resilient(["good_exp"], RunPolicy(run_dir=run_dir))
        assert second.ok
        assert second.from_checkpoint
        assert second.result == first.result

    def test_resumed_result_keeps_column_order(self, plugin, tmp_path):
        run_dir = str(tmp_path / "run")
        (first,) = run_resilient(["cols_exp"], RunPolicy(run_dir=run_dir))
        (second,) = run_resilient(["cols_exp"], RunPolicy(run_dir=run_dir))
        assert second.from_checkpoint
        assert list(second.result.rows[0]) == ["zeta", "alpha"]
        assert second.result.format_table() == first.result.format_table()

    def test_failed_checkpoint_is_rerun(self, plugin, tmp_path):
        run_dir = str(tmp_path / "run")
        run_resilient(["crash_exp"], RunPolicy(run_dir=run_dir, backoff_s=0.0))
        assert (tmp_path / "run" / "crash_exp.json").is_file()
        (again,) = run_resilient(
            ["crash_exp"], RunPolicy(run_dir=run_dir, backoff_s=0.0)
        )
        assert not again.from_checkpoint  # failures re-run, not resumed

    def test_corrupt_checkpoint_is_rerun(self, plugin, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "good_exp.json").write_text("{ not json")
        (outcome,) = run_resilient(["good_exp"], RunPolicy(run_dir=str(run_dir)))
        assert outcome.ok
        assert not outcome.from_checkpoint
        # The corrupt file was replaced by a valid checkpoint.
        payload = json.loads((run_dir / "good_exp.json").read_text())
        assert payload["status"] == "ok"


class TestNonBlockingBackoff:
    def test_peer_progresses_during_pending_backoff(
        self, plugin, tmp_path, monkeypatch
    ):
        """A pending retry backoff must not stall the rest of the batch.

        With one slot, ``flaky_exp`` crashes first and goes into a long
        backoff; ``good_exp`` must run *inside* that window.  The proof is
        clock-based but not racy: the flaky plugin writes its marker file
        at first-crash time, so the retry cannot launch before
        ``marker_mtime + backoff`` — and good_exp's checkpoint must exist
        strictly before that instant.
        """
        marker = tmp_path / "flaky.marker"
        monkeypatch.setenv("REPRO_TEST_FLAKY_MARKER", str(marker))
        run_dir = tmp_path / "run"
        backoff = 3.0
        started = time.monotonic()
        outcomes = run_resilient(
            ["flaky_exp", "good_exp"],
            RunPolicy(jobs=1, retries=1, backoff_s=backoff, run_dir=str(run_dir)),
        )
        elapsed = time.monotonic() - started
        by_id = {o.experiment_id: o for o in outcomes}
        assert by_id["flaky_exp"].ok and by_id["flaky_exp"].attempts == 2
        assert by_id["good_exp"].ok and by_id["good_exp"].attempts == 1
        # The backoff really was served before the retry...
        assert elapsed >= backoff
        # ...and good_exp checkpointed before the retry could even start.
        good_published = (run_dir / "good_exp.json").stat().st_mtime
        retry_earliest = marker.stat().st_mtime + backoff
        assert good_published < retry_earliest, (
            "good_exp finished only after flaky_exp's backoff elapsed — "
            "the supervisor blocked on a pending retry"
        )
        # Atomic checkpoint publishes leave no temp litter behind.
        assert not list(run_dir.glob(".*.tmp"))


class TestRequireAllOk:
    def test_passes_through_results(self):
        result = ExperimentResult("a", "A", [])
        outcomes = [RunOutcome("a", "ok", result=result)]
        assert require_all_ok(outcomes) == [result]

    def test_raises_with_summary(self):
        outcomes = [
            RunOutcome("a", "ok", result=ExperimentResult("a", "A", [])),
            RunOutcome("b", "timeout", error="too slow"),
        ]
        with pytest.raises(ExperimentError, match="b \\(timeout\\)"):
            require_all_ok(outcomes)


class TestIntegration:
    def test_run_experiments_routes_resilient_and_raises(self, plugin):
        from repro.experiments import run_experiments

        with pytest.raises(ExperimentError):
            run_experiments(["crash_exp"], timeout_s=30.0)

    def test_run_experiments_resilient_ok_returns_results(self, plugin):
        from repro.experiments import run_experiments

        results = run_experiments(["good_exp"], timeout_s=30.0)
        assert results[0].rows == [{"x": 1}]

    def test_partial_report_marks_failures(self, plugin, tmp_path):
        from repro.experiments.report import generate_report

        text = generate_report(
            ["good_exp", "crash_exp"],
            timeout_s=30.0,
            run_dir=str(tmp_path / "run"),
        )
        assert "Partial report" in text
        assert "crash_exp — FAILED (failed)" in text
        assert "A good experiment" in text
