"""Tests for the batch records and the rules ``run_batch`` checks first.

A batch runs in this process (:func:`repro.experiments.run_batch`), so
the stand-in experiments here go into the registry dict itself, through
``monkeypatch.setitem``.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENT_MODULES,
    experiment_registry,
    run_batch,
    run_experiment,
)
from repro.experiments.records import (
    ExperimentResult,
    RunPolicy,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.report import generate_report


@pytest.fixture
def ran(monkeypatch):
    """Two stand-in experiments in the registry; returns the ids that ran."""
    ran = []

    class _Recorder:
        def __init__(self, experiment_id):
            self.experiment_id = experiment_id

        def run(self):
            ran.append(self.experiment_id)
            return ExperimentResult(self.experiment_id, "Stand-in", [{"x": 1}])

    registry = experiment_registry()
    for eid in ("first_exp", "second_exp"):
        monkeypatch.setitem(registry, eid, _Recorder(eid))
    return ran


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
        from repro.experiments import ALL_EXPERIMENTS, _experiment_cache_key

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        reset_cache_handles()
        key = _experiment_cache_key("table04", ALL_EXPERIMENTS["table04"])
        active_cache().put("experiment", key, [1, 2])
        result = run_experiment("table04")
        assert active_cache().get("experiment", key) == result_to_dict(result)


class TestFailFast:
    def test_unknown_id_raises_before_spawning(self, ran):
        """An unknown id fails the batch before any experiment runs."""
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_batch(["first_exp", "nope"])
        assert ran == []

    def test_unknown_ids_list_the_known_ones(self):
        """A batch and a report name the valid ids, as a single run does."""
        with pytest.raises(ConfigurationError) as batch:
            run_batch(["nope"])
        with pytest.raises(ConfigurationError) as report:
            generate_report(["nope"])
        with pytest.raises(ConfigurationError) as single:
            run_experiment("nope")
        assert str(batch.value) == str(report.value) == str(single.value)
        assert str(single.value) == (
            "unknown experiment ids: nope; known: "
            + ", ".join(EXPERIMENT_MODULES)
        )

    def test_duplicate_ids_rejected(self, ran):
        with pytest.raises(
            ConfigurationError, match="'first_exp' appears more than once"
        ):
            run_batch(["first_exp", "second_exp", "first_exp"])
        assert ran == []

    def test_duplicate_ids_rejected_in_process(self):
        """A repeated id would print its table twice, in a batch and in
        a report."""
        with pytest.raises(ConfigurationError, match="'area' appears more"):
            run_batch(["area", "area"])
        with pytest.raises(ConfigurationError, match="duplicate"):
            generate_report(["area", "area"])
