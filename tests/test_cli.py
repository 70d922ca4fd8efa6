"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestWorkloadsCommand:
    def test_lists_all_six(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"):
            assert name in out


class TestDescribeCommand:
    def test_prints_layers(self, capsys):
        assert main(["describe", "LeNet-5"]) == 0
        out = capsys.readouterr().out
        assert "C1" in out and "C3" in out and "F5" in out

    def test_unknown_workload_reports_error(self, capsys):
        # Not a registry name and not a file: exit code 1 with a message.
        assert main(["describe", "ResNet"]) == 1
        assert "neither a known workload" in capsys.readouterr().err

    def test_description_file_accepted(self, tmp_path, capsys):
        path = tmp_path / "tiny.net"
        path.write_text(
            "network Tiny\ninput 1 8\nconv C1 maps 2 kernel 3\n"
        )
        assert main(["describe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Tiny" in out and "C1" in out

    def test_map_from_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.net"
        path.write_text(
            "network Tiny\ninput 1 8\nconv C1 maps 2 kernel 3\n"
        )
        assert main(["map", str(path)]) == 0
        assert "Tiny on a 16x16" in capsys.readouterr().out


class TestMapCommand:
    def test_prints_factors_and_utilization(self, capsys):
        assert main(["map", "LeNet-5"]) == 0
        out = capsys.readouterr().out
        assert "<Tm=3, Tn=1, Tr=1, Tc=5, Ti=3, Tj=5>" in out
        assert "overall utilization" in out

    def test_custom_dim(self, capsys):
        assert main(["map", "PV", "--dim", "8"]) == 0
        assert "8x8" in capsys.readouterr().out


class TestRunCommand:
    def test_single_architecture(self, capsys):
        assert main(["run", "LeNet-5"]) == 0
        out = capsys.readouterr().out
        assert "FlexFlow" in out and "GOPS" in out

    def test_all_architectures(self, capsys):
        assert main(["run", "HG", "--arch", "all"]) == 0
        out = capsys.readouterr().out
        for label in ("Systolic", "2D-Mapping", "Tiling", "FlexFlow"):
            assert label in out


class TestCompileCommand:
    def test_emits_assembly(self, capsys):
        assert main(["compile", "LeNet-5"]) == 0
        out = capsys.readouterr().out
        assert "CFG 3 1 1 5 3 5" in out
        assert out.rstrip().endswith("HLT")

    def test_execute_flag_adds_timing(self, capsys):
        assert main(["compile", "FR", "--execute"]) == 0
        out = capsys.readouterr().out
        assert "# executed:" in out and "compute" in out


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "area"]) == 0
        out = capsys.readouterr().out
        assert "Layout area" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "area", "--jobs", "2"],
            ["experiment", "area", "-j", "2"],
            ["experiment", "all", "--shards", "2"],
            ["experiment", "all", "--host-id", "x"],
            ["report", "--jobs", "2"],
        ],
        ids=[
            "experiment-jobs", "experiment-j", "shards", "host-id",
            "report-jobs",
        ],
    )
    def test_parallel_runner_flags_rejected(self, argv, capsys):
        """Batches run in one process (or on one supervised worker):
        the options that spread them over more are usage errors."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrorPaths:
    """Every CLI failure: exit code 1, one-line stderr, no traceback."""

    def test_directory_as_workload_reports_error(self, tmp_path, capsys):
        # A directory passes os.path.exists but cannot be open()ed; this
        # used to escape as an uncaught OSError traceback.
        assert main(["describe", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read workload file" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_description_file_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_text("network t\ninput 1 8\nconv maps 2 maps 4 kernel 3\n")
        assert main(["describe", str(path)]) == 1
        captured = capsys.readouterr()
        assert "duplicate field" in captured.err
        assert captured.out == ""

    def test_errors_go_to_stderr_not_stdout(self, capsys):
        assert main(["map", "NoSuchNet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1  # a single line

    def test_report_write_failure_reports_error(self, tmp_path, capsys):
        target = tmp_path / "is_a_dir"
        target.mkdir()
        assert main(["report", "-o", str(target)]) == 1
        captured = capsys.readouterr()
        assert "cannot write report" in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["dse", "AlexNet", "--per-layer", "--reconfig-cost", "inf"],
             "--reconfig-cost"),
            (["dse", "PV", "--per-layer", "--reconfig-cost", "nan"],
             "--reconfig-cost"),
            (["map", "PV", "--dim", "0"], "--dim"),
            (["run", "PV", "--dim", "-3"], "--dim"),
            (["compile", "PV", "--dim", "0"], "--dim"),
            (["trace", "PV", "--dim", "0"], "--dim"),
            (["faults", "sweep", "--dim", "0"], "--dim"),
            (["faults", "mask", "--dim", "eight"], "--dim"),
        ],
    )
    def test_bad_value_names_its_flag(self, capsys, argv, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, repeated",
        [
            (["dse", "LeNet-5", "--dims", "8,8"], "8"),
            (["dse", "PV", "--dims", "8,16,08"], "8"),
            (["faults", "sweep", "--rates", "0.1,0.1", "--workloads", "PV"],
             "0.1"),
            (["faults", "sweep", "--rates", "0", "--workloads", "PV, PV"],
             "'PV'"),
            (["faults", "mask", "--rows", "1,1"], "1"),
            (["faults", "mask", "--cols", "2,3,2"], "2"),
            (["faults", "mask", "--pes", "1:2,1:2"], "(1, 2)"),
        ],
        ids=["dims", "dims-spelled-twice", "rates", "workloads", "rows",
             "cols", "pes"],
    )
    def test_repeated_list_value_rejected(self, capsys, argv, repeated):
        """A repeated value would print its row twice (twice starred as
        the best dim, in ``dse``)."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad ")
        assert captured.err.count("\n") == 1
        assert f": {repeated} appears more than once" in captured.err


class TestParallelExperiments:
    """A supervised batch (one spawn worker, ``timeout_s``) returns what
    the same batch returns in-process."""

    def test_run_experiments_parallel_matches_serial(self):
        from repro.experiments import RunPolicy, run_batch

        ids = ["area", "table04"]
        serial = run_batch(ids, RunPolicy())
        supervised = run_batch(ids, RunPolicy(timeout_s=300))
        assert all(o.ok for o in supervised)
        assert [o.result.title for o in serial] == [
            o.result.title for o in supervised
        ]
        assert [o.result.rows for o in serial] == [
            o.result.rows for o in supervised
        ]

    def test_run_experiments_rejects_unknown_ids(self):
        from repro.errors import ConfigurationError
        from repro.experiments import RunPolicy, run_batch

        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_batch(["area", "nope"], RunPolicy(timeout_s=300))

    def test_report_jobs_matches_serial(self):
        from repro.experiments.report import generate_report

        ids = ["area", "table04"]
        assert generate_report(ids, timeout_s=300) == generate_report(ids)


class TestFaultsCommand:
    def test_mask_prints_map_and_subgrid(self, capsys):
        assert main(["faults", "mask", "--dim", "4", "--rows", "1"]) == 0
        out = capsys.readouterr().out
        assert "XXXX" in out
        assert "usable subgrid after remapping: 3x4" in out

    def test_mask_with_rate_deterministic(self, capsys):
        assert main(
            ["faults", "mask", "--dim", "8", "--rate", "0.1", "--seed", "3"]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["faults", "mask", "--dim", "8", "--rate", "0.1", "--seed", "3"]
        ) == 0
        assert capsys.readouterr().out == first

    def test_mask_bad_pes_rejected(self, capsys):
        assert main(["faults", "mask", "--pes", "nope"]) == 1
        assert "bad PE list" in capsys.readouterr().err

    def test_sweep_small(self, capsys):
        assert main(
            [
                "faults", "sweep", "--rates", "0,0.1",
                "--workloads", "PV", "--dim", "16",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fault_degradation" in out
        assert "FlexFlow" in out and "Systolic" in out

    def test_sweep_bad_rate_rejected(self, capsys):
        assert main(["faults", "sweep", "--rates", "0,abc"]) == 1
        assert "bad rate list" in capsys.readouterr().err

    def test_requires_faults_subcommand(self):
        with pytest.raises(SystemExit):
            main(["faults"])


class TestResilienceFlags:
    @pytest.mark.parametrize("command", ["experiment", "report"])
    def test_run_dir_is_a_usage_error(self, capsys, command):
        """The store is how a batch resumes; there is no checkpoint
        directory to name."""
        argv = [command, "--run-dir", "/tmp/x"]
        if command == "experiment":
            argv.insert(1, "area")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_experiment_resume_uses_the_store(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cache import reset_cache_handles
        from repro.obs.metrics import REGISTRY

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        reset_cache_handles()
        argv = ["experiment", "table04", "--timeout", "300"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # The second run reads the entry the first run's worker stored
        # and starts no worker.
        reset_cache_handles()
        REGISTRY.reset()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert not any(
            name.startswith("pool.") for name in REGISTRY.snapshot()
        )

    def test_experiment_invalid_timeout_rejected(self, capsys):
        assert main(["experiment", "table04", "--timeout", "-5"]) == 1
        assert "timeout_s must be positive" in capsys.readouterr().err

    def test_experiment_nan_timeout_rejected_before_any_worker(
        self, capsys, monkeypatch
    ):
        import multiprocessing

        import repro.experiments as experiments

        batches = []
        monkeypatch.setattr(
            experiments, "run_batch", lambda *args: batches.append(args) or []
        )
        assert main(["experiment", "table04", "--timeout", "nan"]) == 1
        assert "timeout_s" in capsys.readouterr().err
        assert batches == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--timeout", "timeout_s"),
            ("--backoff", "backoff_s"),
            ("--max-backoff", "max_backoff_s"),
        ],
    )
    def test_serve_nan_policy_refused_before_bind(
        self, capsys, monkeypatch, flag, field
    ):
        import repro.serve.app as app

        def never(*args, **kwargs):
            raise AssertionError("the server must not start")

        monkeypatch.setattr(app, "ServeApp", never)
        monkeypatch.setattr(app, "run_app", never)
        assert main(["serve", "--port", "0", flag, "nan"]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--batch-window-ms", "inf", "window_ms"),
            ("--batch-max", "0", "max_batch"),
            ("--jobs", "-1", "jobs"),
        ],
    )
    def test_serve_bad_setting_refused_before_bind(
        self, capsys, monkeypatch, flag, value, field
    ):
        import repro.serve.app as app

        def never(*args, **kwargs):
            raise AssertionError("the server must not start")

        monkeypatch.setattr(app, "run_app", never)
        assert main(["serve", "--port", "0", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize(
        "flag",
        [
            "--max-pending", "--breaker-threshold", "--breaker-reset",
            "--grace-factor", "--drain-timeout",
        ],
    )
    def test_retired_serve_flags_are_usage_errors(self, capsys, flag):
        """The service limits are constants, not options."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", flag, "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_without_flags_keeps_the_old_limits(self, monkeypatch):
        """No flags: 1024 pending per kind, a breaker that opens after 5
        consecutive failures for 30 s, a reap at 2x the timeout and a
        drain of up to 10 s."""
        import repro.serve.app as app
        from repro.serve import resilience
        from repro.serve.resilience import OverloadedError

        built = []

        async def capture(serve_app, host, port):
            built.append(serve_app)

        monkeypatch.setattr(app, "run_app", capture)
        assert main(["serve", "--port", "0"]) == 0
        (served,) = built
        assert served.pool.grace_factor == 2.0
        for _ in range(1024):
            served.resilience.enter("map")
        with pytest.raises(OverloadedError, match="budget 1024"):
            served.resilience.enter("map")
        for _ in range(1024):
            served.resilience.exit("map")  # back to a zero pending gauge
        breaker = served.resilience.breaker("dse")
        assert (breaker.threshold, breaker.reset_s) == (5, 30.0)
        assert resilience.DRAIN_TIMEOUT_S == 10.0

    def test_report_resilience_flags_parse(self):
        # The full resilient report is exercised in
        # tests/experiments/test_runner.py; here just the flag plumbing.
        parser_error = False
        try:
            from repro.cli import _build_parser

            args = _build_parser().parse_args(
                ["report", "--timeout", "60", "--retries", "2"]
            )
        except SystemExit:
            parser_error = True
        assert not parser_error
        assert args.timeout == 60.0
        assert args.retries == 2


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _isolated_store(self, tmp_path, monkeypatch):
        from repro.cache import reset_cache_handles

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        reset_cache_handles()
        yield
        reset_cache_handles()

    def test_stats_on_empty_store(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "enabled: on" in out
        assert "entries: 0" in out

    def test_populate_stats_verify_clear(self, capsys):
        from repro.cache import active_cache

        assert main(["experiment", "table04"]) == 0
        active_cache().drain()  # the entry publishes behind the run
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out
        assert "map_network" not in out and "simulate_network" not in out
        assert main(["cache", "verify"]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_verify_repair_golden_output(self, tmp_path, capsys):
        from repro.cache import hash_payload
        from repro.cache.store import ResultCache, cache_root

        store = ResultCache(cache_root())
        good = hash_payload("unit", {"n": "good"})
        bad = hash_payload("unit", {"n": "bad"})
        store.put("unit", good, "fine")
        store.put("unit", bad, "soon-garbage")
        bad_path = store._entry_path("unit", bad)
        bad_path.write_text("{torn")
        assert main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert (
            "checked 2 entries: 1 ok, 1 corrupt"
            " (re-run with --repair to quarantine them)\n" == out
        )
        assert main(["cache", "verify", "--repair"]) == 0
        out = capsys.readouterr().out
        assert "checked 2 entries: 1 ok, 1 corrupt, 1 quarantined\n" == out
        assert not bad_path.exists()
        assert (cache_root() / ".quarantine" / "unit" / bad_path.name).exists()

    def test_maintenance_works_when_disabled(self, monkeypatch, capsys):
        # A disabled cache can still be inspected and cleaned.
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert main(["cache", "stats"]) == 0
        assert "enabled: off" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0

    def test_invalid_cache_env_is_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "banana")
        assert main(["experiment", "table04"]) == 1
        assert "REPRO_CACHE" in capsys.readouterr().err


class TestTracePerLayer:
    def test_plan_appended_and_spans_exported(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(
            ["trace", "PV", "--per-layer", "-o", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "occupancy" in out  # the ordinary breakdown still prints
        assert "per-layer dataflow plan: PV @ 16x16" in out
        events = json.loads(out_path.read_text())["traceEvents"]
        names = {event.get("name", "") for event in events}
        assert "dse_per_layer:PV" in names
        assert any(name.startswith("choice:") for name in names)


class TestDseCommand:
    #: Exact table for ``dse PV --dims 8,16`` (trailing pad stripped) —
    #: a golden pin of row content, float formatting, and the best marker.
    GOLDEN_PV = [
        "== dse: FlexFlow array-scale sweep (batched candidate scoring) ==",
        "workload  dim    utilization  gops     area_mm2  gops_per_mm2  best",
        "--------  -----  -----------  -------  --------  ------------  ----",
        "PV        8x8    0.822        105.231  1.249     84.246",
        "PV        16x16  0.749        383.699  3.893     98.565        *",
        "note: * marks the GOPS/mm^2-optimal scale per workload.",
    ]

    def test_golden_table(self, capsys):
        assert main(["dse", "PV", "--dims", "8,16"]) == 0
        out = capsys.readouterr().out
        assert [line.rstrip() for line in out.strip().splitlines()] == self.GOLDEN_PV

    @staticmethod
    def _require_cext():
        from repro.kernels import cext

        try:
            cext.load()
        except cext.KernelBuildError as exc:
            pytest.skip(f"C backend unavailable: {exc}")

    @staticmethod
    def _dse_under(backend, argv, capsys, monkeypatch):
        """Run ``main(argv)`` with ``REPRO_KERNELS=backend``.

        The mapping memo is cleared first so the backend really runs.
        Returns the exit code and the captured output.
        """
        from repro.dataflow import clear_mapping_cache

        monkeypatch.setenv("REPRO_KERNELS", backend)
        clear_mapping_cache()
        return main(argv), capsys.readouterr()

    def test_unknown_kernels_backend_rejected(self, capsys, monkeypatch):
        code, captured = self._dse_under(
            "numba", ["dse", "PV"], capsys, monkeypatch
        )
        assert code == 1
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert err.startswith("error: ") and "auto, cext, numpy" in err

    def test_kernel_backends_print_identical_tables(self, capsys, monkeypatch):
        self._require_cext()
        argv = ["dse", "all"]
        numpy_code, numpy = self._dse_under("numpy", argv, capsys, monkeypatch)
        cext_code, cext = self._dse_under("cext", argv, capsys, monkeypatch)
        assert numpy_code == cext_code == 0
        assert cext.out == numpy.out

    def test_all_workloads(self, capsys):
        assert main(["dse", "all", "--dims", "8"]) == 0
        out = capsys.readouterr().out
        for name in ("PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"):
            assert name in out

    def test_workload_file_accepted(self, tmp_path, capsys):
        path = tmp_path / "tiny.net"
        path.write_text("network Tiny\ninput 1 8\nconv C1 maps 2 kernel 3\n")
        assert main(["dse", str(path), "--dims", "4,8"]) == 0
        assert "Tiny" in capsys.readouterr().out

    def test_invalid_dims_rejected(self, capsys):
        assert main(["dse", "PV", "--dims", "0,8"]) == 1
        assert "positive" in capsys.readouterr().err
        assert main(["dse", "PV", "--dims", "eight"]) == 1
        assert "bad dimension list" in capsys.readouterr().err

    def test_invalid_dims_error_shows_grid_example(self, capsys):
        # The error must teach the comma-separated grid syntax the docs
        # describe, not just reject the input.
        assert main(["dse", "PV", "--dims", "8x16"]) == 1
        err = capsys.readouterr().err
        assert "e.g. --dims 8,16,32" in err

    def test_per_layer_plan(self, capsys):
        assert main(["dse", "AlexNet", "--per-layer"]) == 0
        out = capsys.readouterr().out
        assert "per-layer dataflow plan: AlexNet @ 16x16" in out
        assert "pipeline" in out and "flexflow" in out
        assert "<- best fixed" in out
        assert "speedup vs best fixed" in out

    def test_per_layer_engines_agree(self, capsys, monkeypatch):
        """Per-layer plans are byte-identical under both kernel backends."""
        self._require_cext()
        argv = ["dse", "all", "--per-layer"]
        numpy_code, numpy = self._dse_under("numpy", argv, capsys, monkeypatch)
        cext_code, cext = self._dse_under("cext", argv, capsys, monkeypatch)
        assert numpy_code == cext_code == 0
        assert cext.out == numpy.out

    def test_per_layer_respects_dims(self, capsys):
        assert main(["dse", "PV", "--per-layer", "--dims", "8"]) == 0
        assert "PV @ 8x8" in capsys.readouterr().out

    def test_invalid_reconfig_cost_rejected(self, capsys):
        assert main(["dse", "PV", "--per-layer", "--reconfig-cost", "-1"]) == 1
        assert "--reconfig-cost must be >= 0" in capsys.readouterr().err


class TestBrokenPipe:
    """``repro ... | head`` must exit 0, not dump a BrokenPipeError.

    The reader side of the pipe is closed *before* the child starts, so
    the child's very first stdout flush raises EPIPE (CPython ignores
    SIGPIPE, surfacing it as BrokenPipeError).  The CLI must swallow it
    and exit cleanly.
    """

    def _run_with_closed_stdout(self, argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # nobody will ever read: first flush -> EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_fd,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_fd)
        return proc

    def test_small_output_exits_zero(self):
        proc = self._run_with_closed_stdout(["workloads"])
        stderr = proc.stderr.decode()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr

    def test_large_output_exits_zero(self):
        proc = self._run_with_closed_stdout(["compile", "VGG-11", "--dim", "16"])
        stderr = proc.stderr.decode()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
