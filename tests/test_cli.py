"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_prints_help_and_exits_2(self, capsys):
        rc = main([])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage: repro" in captured.err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # a dotted version number follows the program name
        assert out.split()[1][0].isdigit()

    def test_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.dataset == "mesh-c"
        assert args.ilu == 1
        assert args.dissipation == "rusanov"

    def test_scaling_nodes_list(self):
        args = build_parser().parse_args(["scaling", "--nodes", "1", "8"])
        assert args.nodes == [1, 8]

    @pytest.mark.parametrize(
        "command", ["solve", "profile", "mesh-info", "speedup", "partition"]
    )
    def test_ordering_defaults_to_rcm(self, command):
        assert build_parser().parse_args([command]).ordering == "rcm"
        natural = build_parser().parse_args([command, "--ordering", "natural"])
        assert natural.ordering == "natural"

    def test_ordering_has_two_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--ordering", "frontal"])
        assert exc.value.code == 2
        assert "'natural', 'rcm'" in capsys.readouterr().err

    def test_backend_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.backend == "serial"
        assert args.workers == 2
        assert args.edge_strategy == "owner"
        assert args.partitioner == "metis"

    def test_fuse_option_is_gone(self, capsys):
        """The residual program is the only path; nothing selects it."""
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--fuse", "on"])
        assert exc.value.code == 2
        assert "--fuse" in capsys.readouterr().err
        assert not hasattr(build_parser().parse_args(["solve"]), "fuse")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--sparse-backend=process"],
            ["profile", "--sparse-backend=process"],
        ],
        ids=" ".join,
    )
    def test_sparse_fleet_options_are_gone(self, argv, capsys):
        """The compiled sweep is the recurrence; nothing selects a fleet."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["bench"], ["bench", "report"]], ids=" ".join
    )
    def test_bench_subcommand_is_gone(self, argv, capsys):
        """``bench/run.py`` is the one harness; no shim keeps ``repro bench``."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_bench_gates_and_history_are_gone(self, capsys):
        """No shim behind the removed subcommands: ``smp/bench.py`` keeps the
        two figure-test measurements, and neither ``repro calibrate`` nor the
        tuner package it fed survives."""
        import repro.smp.bench as smp_bench

        for name in ("gate_failures", "rolling_gate_failures", "load_history",
                     "append_history", "run_scatter_kernels"):
            assert not hasattr(smp_bench, name)
        for mod in ("repro.tune", "repro.tune.bench"):
            with pytest.raises(ModuleNotFoundError):
                __import__(mod)
        with pytest.raises(SystemExit) as exc:
            main(["calibrate"])
        assert exc.value.code == 2
        assert "invalid choice: 'calibrate'" in capsys.readouterr().err

    def test_sparse_fleet_fields_are_gone(self, capsys):
        """No silent-ignore shim behind the removed flags either."""
        from dataclasses import fields

        from repro.smp.machine import MachineModel
        from repro.solver import SolverOptions

        cmds = (["solve"], ["profile"])
        parsed = [build_parser().parse_args(argv) for argv in cmds]
        for flag in ("--sparse-backend", "--sparse-strategy", "--sparse-workers"):
            name = flag.lstrip("-").replace("-", "_")
            assert not any(hasattr(ns, name) for ns in parsed)
            with pytest.raises(TypeError):
                SolverOptions(**{name: 2})
        for argv in cmds:
            for extra in (["--tune"], ["--calibration", "cal.json"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv + extra)
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert "unrecognized arguments" in err and extra[0] in err
        assert "dispatch_ns" not in {f.name for f in fields(MachineModel)}

    @pytest.mark.parametrize("command", ["solve", "profile"])
    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_max_steps_below_one_is_a_usage_error(self, command, steps, capsys):
        """Regression: ``solve --max-steps 0`` used to end in an
        ``IndexError`` traceback from the empty residual history."""
        rc = main([command, "--scale", "0.02", "--max-steps", steps])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"repro {command}: error: max_steps must be at least 1" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        "solve --workers 0 --backend thread",
        "profile --workers 0 --backend thread",
        "solve --ilu -1",
        "solve --scale -1",
        "partition --parts 0",
        "scaling --nodes 0",
        "speedup --threads 0",
        "solve --subdomains 0",
        "solve --subdomains -3",
        "solve --dist-ranks -1",
        "solve --pipelined",
        "profile --pipelined",
        "solve --dist-ranks 2 --subdomains 4",
        "solve --backend thread --dist-ranks 2",
        "profile --backend thread --dist-ranks 2",
        "solve --workers 3",
        "solve --edge-strategy locked",
        "solve --partitioner natural",
        "profile --backend serial --edge-strategy locked",
        "solve --backend process",
        "solve --seed -1",
        "mesh-info --seed -1",
        "solve --aoa nan",
        "solve --aoa inf",
        "mesh-info --scale inf",
        "partition --parts 5000",
        "solve --subdomains 5000",
        "solve --backend thread --workers 5000",
        "solve --dist-ranks 5000",
    ])
    def test_bad_numeric_value_is_a_usage_error(self, argv, capsys):
        """Regression: each of these ended in a traceback, printed a
        speedup at 0 threads, or was silently accepted (``--subdomains 0``,
        ``--dist-ranks -1``, ``--subdomains`` under ranks, the edge
        backend under ranks, the edge-thread options without
        ``--backend thread``), or ran every step to a NaN (``--aoa nan``).
        There is no process backend and no pipelined halo mode any
        more."""
        args = argv.split()
        if args[0] != "scaling" and "--scale" not in args:
            args += ["--scale", "0.02"]
        if args[0] in ("solve", "profile"):
            args += ["--max-steps", "2"]
        try:
            rc = main(args)
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["serve", "submit"])
    def test_daemon_subcommands_are_gone(self, command, capsys):
        """One application, no daemon: no shim keeps ``serve`` / ``submit``."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--socket", "s"])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_daemon_only_api_is_gone(self):
        """What only the daemon set is gone with it: the package, the
        warm session, the batched residual, the viscous term and the
        never-unset keywords."""
        import repro.solver
        import repro.sweeps
        from repro.cfd import FlowConfig
        from repro.dist.runtime import DistRuntime, ShmTransport, distributed_solve

        with pytest.raises(ModuleNotFoundError):
            __import__("repro.serve")
        with pytest.raises(TypeError):
            FlowConfig(mu=0.1)
        with pytest.raises(TypeError):
            distributed_solve(None, FlowConfig(), decomp=object())
        from repro.smp import ThreadEdgeBackend

        for call in (distributed_solve, DistRuntime, ShmTransport, ThreadEdgeBackend):
            with pytest.raises(TypeError):
                call(None, None, telemetry=False)
        assert not hasattr(repro.solver, "SteadySolverSession")
        assert not hasattr(repro.sweeps, "batched_residual")


class TestCommands:
    def test_mesh_info(self, capsys):
        rc = main(["mesh-info", "--scale", "0.04"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MeshReport[OK]" in out

    def test_mesh_info_wing(self, capsys):
        rc = main(["mesh-info", "--dataset", "wing", "--scale", "0.05"])
        assert rc == 0

    def test_solve(self, capsys):
        rc = main(["solve", "--scale", "0.02", "--max-steps", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged=True" in out
        assert "CL=" in out

    def test_solve_roe(self, capsys):
        rc = main([
            "solve", "--scale", "0.02", "--dissipation", "roe",
            "--max-steps", "60",
        ])
        assert rc == 0

    def test_speedup(self, capsys):
        rc = main(["speedup", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "paper-scale" in out

    def test_scaling(self, capsys):
        rc = main(["scaling", "--nodes", "1", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strong scaling" in out

    def test_scaling_pipelined(self, capsys):
        rc = main(["scaling", "--nodes", "64", "--pipelined"])
        assert rc == 0

    def test_partition(self, capsys):
        rc = main(["partition", "--scale", "0.04", "--parts", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "multilevel" in out


class TestProcessBackend:
    def test_solve_process_backend_matches_serial(self, capsys):
        rc = main(["solve", "--scale", "0.02", "--max-steps", "60"])
        serial_out = capsys.readouterr().out
        rc2 = main([
            "solve", "--scale", "0.02", "--max-steps", "60",
            "--backend", "thread", "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and rc2 == 0
        assert "edge backend: thread x2 (owner-metis" in out
        # identical converged forces, line for line
        serial_forces = [ln for ln in serial_out.splitlines() if "CL=" in ln]
        forces = [ln for ln in out.splitlines() if "CL=" in ln]
        assert forces == serial_forces

    def test_solve_modes_print_identical_forces(self, capsys):
        """Serial, edge threads and ranks run one residual definition."""
        forces = []
        for extra in (
            [],
            ["--backend", "thread", "--workers", "2"],
            ["--dist-ranks", "2"],
        ):
            rc = main(
                ["solve", "--scale", "0.02", "--max-steps", "60"] + extra
            )
            out = capsys.readouterr().out
            assert rc == 0
            forces.append([ln for ln in out.splitlines() if "CL=" in ln])
        assert forces[0] and forces[0] == forces[1] == forces[2]

    @pytest.mark.parametrize("command", ["solve", "profile"])
    @pytest.mark.parametrize(
        "mode",
        [[], ["--backend", "thread", "--workers", "2"], ["--dist-ranks", "2"]],
        ids=["serial", "thread", "dist"],
    )
    def test_measured_commands_price_nothing(self, command, mode, monkeypatch, capsys):
        """``solve`` / ``profile`` print what the run measured: the machine
        model is never asked for a price, and the one ILU symbolic plan per
        subdomain the solve builds is the one ``profile`` describes."""
        import repro.sparse.ilu as ilu
        from repro.apps import Fun3dApp

        def priced(*args, **kwargs):
            raise AssertionError("a measured command priced the model")

        monkeypatch.setattr(Fun3dApp, "modeled_profile", priced)
        monkeypatch.setattr(ilu.ILUPlan, "factor_block_ops", priced)
        calls = []
        symbolic = ilu.ilu_symbolic
        monkeypatch.setattr(
            ilu, "ilu_symbolic", lambda *a, **k: calls.append(1) or symbolic(*a, **k)
        )
        rc = main([command, "--scale", "0.02", "--max-steps", "60"] + mode)
        out = capsys.readouterr().out
        assert rc == 0
        assert "baseline profile" not in out
        assert len(calls) == (2 if "--dist-ranks" in mode else 1)

    def test_profile_process_backend_has_worker_spans(self, capsys):
        rc = main([
            "profile", "--scale", "0.02", "--max-steps", "60",
            "--backend", "thread", "--workers", "2",
            "--edge-strategy", "locked",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flux.w0" in out and "flux.w1" in out
        assert "grad.w0" in out and "grad.w1" in out


class TestObservability:
    def test_profile_command(self, capsys):
        rc = main(["profile", "--scale", "0.02", "--max-steps", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "span-tree profile" in out
        assert "newton-step" in out and "gmres" in out

    def test_solve_trace_out_is_valid_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = main([
            "solve", "--scale", "0.02", "--max-steps", "60",
            "--trace-out", str(trace),
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        evs = doc["traceEvents"]
        assert evs, "trace must contain events"
        names = {e["name"] for e in evs}
        assert {"solve", "newton-step", "gmres", "flux", "trsv"} <= names
        for e in evs:
            assert e["ph"] in ("X", "i")
            assert "ts" in e and "pid" in e and "tid" in e
            if e["ph"] == "X":
                assert "dur" in e

    def test_solve_trace_reconciles_with_registry(self, tmp_path, capsys):
        """Acceptance: the kernel spans fit inside the root ``solve`` span."""
        trace = tmp_path / "t.json"
        rc = main([
            "solve", "--scale", "0.02", "--max-steps", "60",
            "--trace-out", str(trace),
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        by_kernel = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_kernel[e["name"]] = by_kernel.get(e["name"], 0.0) + e["dur"]
        # re-run the same solve to get registry-side totals of similar size
        # is wasteful; instead check internal consistency of the tree: the
        # root span covers its kernels
        root = by_kernel["solve"]
        kernels = sum(
            by_kernel.get(k, 0.0)
            for k in ("flux", "grad", "jacobian", "ilu", "trsv")
        )
        assert 0 < kernels <= root * (1 + 1e-9)

    def test_profile_metrics_out_jsonl(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        rc = main([
            "profile", "--scale", "0.02", "--max-steps", "60",
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        recs = [json.loads(ln) for ln in metrics.read_text().splitlines()]
        kinds = {r["type"] for r in recs}
        assert {"span", "event", "counter", "gauge", "histogram"} <= kinds
        counters = {r["name"]: r["value"] for r in recs if r["type"] == "counter"}
        assert counters["gmres.iterations"] > 0
        assert counters["gmres.allreduces"] > counters["gmres.iterations"]

    @pytest.mark.parametrize("option", ["--trace-out", "--metrics-out"])
    def test_scaling_exports_nothing(self, option, tmp_path, capsys):
        """The model's table is not a run: ``scaling`` has no trace or
        metrics export, and asking for one is a usage error."""
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--nodes", "1", "16", option, str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestInterruptFlush:
    def test_sigterm_mid_solve_flushes_partial_exports(self, tmp_path):
        """Regression: killing a distributed solve mid-run must still write
        whole Chrome trace and JSONL exports and exit 130.  The signal goes
        once flight-recorder bundles show both ranks stepping, to ranks
        stopped where they are, so the solve cannot finish first."""
        from repro.obs import read_jsonl

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        trace = tmp_path / "partial-trace.json"
        log = tmp_path / "partial.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "solve",
                "--scale", "0.15", "--max-steps", "500", "--dist-ranks", "2",
                "--trace-out", str(trace),
                "--metrics-out", str(log),
            ],
            cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        ranks = []
        try:
            # the banner is printed inside _ObsSession (handlers installed)
            deadline = time.monotonic() + 60
            banner = ""
            while time.monotonic() < deadline and not banner:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("distributed runtime:"):
                    banner = line
            assert banner, "solve never announced its ranks"
            # SIGUSR1 bundles until both ranks' rows show a Newton step
            while time.monotonic() < deadline and not ranks:
                proc.send_signal(signal.SIGUSR1)
                line = proc.stderr.readline()
                while line and not line.startswith("flight recorder bundle:"):
                    line = proc.stderr.readline()
                assert line, "solve exited before its ranks stepped"
                with open(line.split(":", 1)[1].strip()) as fh:
                    rows = [json.loads(ln) for ln in fh]
                stepping = {
                    r["proc"]: r["pid"] for r in rows
                    if r["type"] == "proc" and r["pid"]
                    and r["slots"]["step"] >= 1
                }
                if {"rank0", "rank1"} <= set(stepping):
                    ranks = [stepping["rank0"], stepping["rank1"]]
            assert ranks, "the ranks never reported a Newton step"
            # freeze the ranks mid-solve: they cannot converge before the
            # SIGTERM lands (the runtime's teardown kills stopped ranks)
            for pid in ranks:
                os.kill(pid, signal.SIGSTOP)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            for pid in ranks:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "interrupted — partial telemetry exports flushed" in err
        # both exports exist and are whole despite the early stop: the
        # parent's open dist-solve span is closed into the trace
        doc = json.loads(trace.read_text())
        assert "dist-solve" in {e["name"] for e in doc["traceEvents"]}
        roots, _, _ = read_jsonl(str(log))
        assert [r.name for r in roots] == ["dist-solve"]

    EXPORTS = ("trace.json", "log.jsonl")

    def _session(self, tmp_path, monkeypatch):
        """An ``_ObsSession`` (never entered: no handlers installed) with
        one span and one counter to export, whose JSONL writer is
        interrupted inside its temporary file on the first call."""
        import argparse

        import repro.obs.export as export
        from repro.cli import _ObsSession

        trace, log = (str(tmp_path / n) for n in self.EXPORTS)
        session = _ObsSession(argparse.Namespace(trace_out=trace, metrics_out=log))
        with session.tracer.span("solve"):
            session.metrics.counter("residual.evals").inc()
        real, calls = export.jsonl_records, []

        def interrupted_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise KeyboardInterrupt  # a SIGTERM landing mid-write
            return real(*args, **kwargs)

        monkeypatch.setattr(export, "jsonl_records", interrupted_once)
        return session

    def _assert_exports_whole(self, tmp_path):
        from repro.obs import read_jsonl

        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.EXPORTS)
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert [e["name"] for e in trace["traceEvents"]] == ["solve"]
        roots, _, rows = read_jsonl(str(tmp_path / "log.jsonl"))
        assert [r.name for r in roots] == ["solve"] and rows

    def test_interrupted_flush_leaves_no_partial_file(self, tmp_path, monkeypatch):
        """Regression: the flush used to mark itself done before writing, so
        an interrupt inside it left a truncated file that no later flush
        rewrote."""
        session = self._session(tmp_path, monkeypatch)
        (tmp_path / "log.jsonl").write_text('{"previous": "export"}\n')
        with pytest.raises(KeyboardInterrupt):
            session.flush()
        # the interrupted file kept its old contents; no temporary remains
        assert (tmp_path / "log.jsonl").read_text() == '{"previous": "export"}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.EXPORTS)
        session.flush()
        self._assert_exports_whole(tmp_path)

    def test_exit_finishes_a_flush_the_signal_interrupted(
        self, tmp_path, monkeypatch
    ):
        session = self._session(tmp_path, monkeypatch)
        with pytest.raises(KeyboardInterrupt):  # still stops the command
            session.__exit__(None, None, None)
        self._assert_exports_whole(tmp_path)


def test_solve_leaves_no_process_global_state(capsys):
    """Regression: an in-process ``solve`` left its SIGTERM handler (raise
    KeyboardInterrupt), its SIGUSR1 bundle dump and its flight recorder
    installed after ``main`` returned."""
    from repro.obs.live import get_flight_recorder

    def state():
        return (
            signal.getsignal(signal.SIGTERM),
            signal.getsignal(signal.SIGUSR1),
            get_flight_recorder(),
        )

    before = state()
    assert main(["solve", "--scale", "0.02", "--max-steps", "2"]) == 1
    assert state() == before


def test_live_plane_surface_is_gone(capsys):
    """What watched a run while it ran is gone, with no shim: ``repro top``,
    the Prometheus / OTLP exports and their modules, and the event rings
    and plane registry the rank rows replaced."""
    with pytest.raises(SystemExit) as exc:
        main(["top"])
    assert exc.value.code == 2
    for command in ("solve", "profile", "scaling"):
        for option in (
            ["--metrics-serve", "0"], ["--metrics-prom", "x"], ["--trace-otlp", "x"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([command, *option])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
    for module in ("top", "health", "exporters", "ring", "plane"):
        with pytest.raises(ModuleNotFoundError):
            __import__(f"repro.obs.live.{module}")
