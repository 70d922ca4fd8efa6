"""Tests for the resilient experiment runner.

The crash/hang/flaky experiments are injected into real ``spawn`` worker
processes through the ``REPRO_EXPERIMENTS_PLUGIN`` environment variable:
a plugin module is written to a temp directory that is placed on
``sys.path`` (spawn children inherit the parent's ``sys.path`` through
the preparation data) and named via the environment, which crosses the
process boundary.
"""

import dataclasses
import os
import textwrap
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments import PLUGIN_ENV, experiment_registry, run_batch
from repro.experiments.records import (
    ExperimentResult,
    RunPolicy,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.runner import run_resilient

PLUGIN_SOURCE = """
import os
import time

from repro.experiments.common import ExperimentResult


class _Good:
    @staticmethod
    def run():
        marker = os.environ.get("REPRO_TEST_GOOD_MARKER")
        if marker:
            with open(marker, "w") as handle:
                handle.write("done")
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
        assert policy.timeout_s is None and policy.retries == 0
        assert [field.name for field in dataclasses.fields(RunPolicy)] == [
            "timeout_s", "retries", "backoff_s", "max_backoff_s"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
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

    @pytest.mark.parametrize(
        "field", ["timeout_s", "backoff_s", "max_backoff_s"]
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_policy_rejected(self, field, value):
        # NaN slips past a plain `<= 0` check; an endless timeout or
        # backoff would wedge the supervised runner instead of failing.
        with pytest.raises(ConfigurationError, match=field):
            RunPolicy(**{field: value})

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

    def test_wrongly_shaped_records_read_as_corrupt(
        self, tmp_path, monkeypatch
    ):
        """Valid JSON of the wrong shape under an experiment's store key
        is a miss, never a crash: the run recomputes and overwrites it."""
        from repro.cache import active_cache, reset_cache_handles
        from repro.experiments import (
            ALL_EXPERIMENTS,
            _experiment_cache_key,
            _stored_result,
            run_experiment,
        )

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        reset_cache_handles()
        module = ALL_EXPERIMENTS["table04"]
        key = _experiment_cache_key("table04", module)
        active_cache().put("experiment", key, [1, 2])
        assert _stored_result("table04", module) is None
        result = run_experiment("table04")
        assert _stored_result("table04", module) == result


class TestFailFast:
    def test_unknown_id_raises_before_spawning(self, plugin):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_resilient(["good_exp", "nope"], RunPolicy())

    def test_duplicate_ids_rejected(self, plugin):
        with pytest.raises(
            ConfigurationError, match="'good_exp' appears more than once"
        ):
            run_resilient(["good_exp", "pid_a", "good_exp"], RunPolicy())

    def test_duplicate_ids_rejected_in_process(self, plugin):
        """The in-process path keeps the same rule: a repeated id would
        print its table twice."""
        from repro.experiments.report import generate_report

        with pytest.raises(ConfigurationError, match="'area' appears more"):
            run_batch(["area", "area"], RunPolicy())
        with pytest.raises(ConfigurationError, match="duplicate"):
            generate_report(["good_exp", "good_exp"])


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
            ["good_exp", "crash_exp"], RunPolicy(backoff_s=0.0)
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
        """Four experiments run on one worker process, not one
        interpreter per experiment, and not in this process."""
        outcomes = run_resilient(
            ["pid_a", "pid_b", "pid_c", "pid_d"], RunPolicy()
        )
        assert all(o.ok for o in outcomes)
        pids = {o.result.rows[0]["pid"] for o in outcomes}
        assert len(pids) == 1
        assert os.getpid() not in pids

    def test_no_worker_outlives_a_batch(self, plugin):
        import multiprocessing

        run_resilient(["good_exp", "pid_a"], RunPolicy())
        assert multiprocessing.active_children() == []
        (crashed,) = run_resilient(["crash_exp"], RunPolicy(backoff_s=0.0))
        assert crashed.status == "failed"
        assert multiprocessing.active_children() == []
        (hung,) = run_resilient(
            ["hang_exp"], RunPolicy(timeout_s=1.0, backoff_s=0.0)
        )
        assert hung.status == "timeout"
        assert multiprocessing.active_children() == []


class TestNonBlockingBackoff:
    def test_peer_progresses_during_pending_backoff(
        self, plugin, tmp_path, monkeypatch
    ):
        """A pending retry backoff must not stall the rest of the batch.

        With one slot, ``flaky_exp`` crashes first and goes into a long
        backoff; ``good_exp`` must run *inside* that window.  The proof is
        clock-based but not racy: the flaky plugin writes its marker file
        at first-crash time, so the retry cannot launch before
        ``marker_mtime + backoff`` — and good_exp's own marker must exist
        strictly before that instant.
        """
        marker = tmp_path / "flaky.marker"
        good_marker = tmp_path / "good.marker"
        monkeypatch.setenv("REPRO_TEST_FLAKY_MARKER", str(marker))
        monkeypatch.setenv("REPRO_TEST_GOOD_MARKER", str(good_marker))
        backoff = 3.0
        started = time.monotonic()
        outcomes = run_resilient(
            ["flaky_exp", "good_exp"],
            RunPolicy(retries=1, backoff_s=backoff),
        )
        elapsed = time.monotonic() - started
        by_id = {o.experiment_id: o for o in outcomes}
        assert by_id["flaky_exp"].ok and by_id["flaky_exp"].attempts == 2
        assert by_id["good_exp"].ok and by_id["good_exp"].attempts == 1
        # The backoff really was served before the retry...
        assert elapsed >= backoff
        # ...and good_exp ran before the retry could even start.
        good_ran = good_marker.stat().st_mtime
        retry_earliest = marker.stat().st_mtime + backoff
        assert good_ran < retry_earliest, (
            "good_exp finished only after flaky_exp's backoff elapsed — "
            "the supervisor blocked on a pending retry"
        )


class TestIntegration:
    def test_run_batch_routes_resilient_and_reports_failure(self, plugin):
        """A timeout sends the batch to the pool: a crashing experiment
        comes back as a failed outcome instead of taking this process
        down."""
        (outcome,) = run_batch(["crash_exp"], RunPolicy(timeout_s=30.0))
        assert outcome.status == "failed"
        assert "exitcode" in outcome.error

    def test_run_experiments_resilient_ok_returns_results(self, plugin):
        (outcome,) = run_batch(["good_exp"], RunPolicy(timeout_s=30.0))
        assert outcome.ok
        assert outcome.result.rows == [{"x": 1}]

    def test_partial_report_marks_failures(self, plugin):
        from repro.experiments.report import generate_report

        text = generate_report(["good_exp", "crash_exp"], timeout_s=30.0)
        assert "Partial report" in text
        assert "crash_exp — FAILED (failed)" in text
        assert "A good experiment" in text
