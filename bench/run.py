#!/usr/bin/env python3
"""The repo's end-to-end benchmark: complete steady solves, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is one JSON object with the
        end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
    python3 bench/run.py [--seed N] [--seconds S] [--out PATH]
        every workload, both metric sets, one JSON document (the input of
        bench/compare.py and the format of bench/baselines/)
    python3 bench/run.py --selfcheck
        < 30 s smoke test of the benchmark itself on a tiny mesh

Closed loop, one client: each workload runs alone in a fresh interpreter
(bench/worker.py) with at most 2 worker/rank processes beside it.  Exit
code 1 when any check failed.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from workloads import (
    ROOT,
    SETUP_LAYERS,
    SPEC_PATH,
    SRC,
    THREAD_PINS,
    TMP,
    WORKLOADS,
    load_spec,
    proc_stat_fields,
)

os.environ.update(THREAD_PINS)  # the host probe below uses numpy too

WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_LIMIT_S = 170.0  # the contract gives one run 180 s
EXTRA_SETUPS = 2  # `worker --setup-only` launches; with the run's own: n=3
NOISY_DRIFT = 0.10
PROBE_REPS = 31
SURVIVOR_GRACE_S = 3.0
SMOKE_ARGS = ["--scale", "0.03", "--max-steps", "3", "--no-converge-check"]
#: directories a run may write below the checkout without it being a leak
TREE_IGNORED = {".git", TMP.name, "__pycache__"}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

def host_probe_ms() -> float:
    """A fixed NumPy gather + einsum loop: the same work before and after a
    workload, so a drift between the two readings flags a noisy host."""
    import numpy as np

    rng = np.random.default_rng(0)
    n = 200_000
    idx = rng.integers(0, n, size=n)
    a = rng.standard_normal((n, 4))
    m = rng.standard_normal((4, 4))
    samples = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        np.einsum("ij,nj->ni", m, a[idx]).sum()
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e3


def tree_files() -> set[str]:
    found = set()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in TREE_IGNORED]
        found.update(os.path.join(base, f) for f in files)
    return found


def session_pids(sid: int) -> list[int]:
    """Live processes in the worker's session (it leads its own)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = proc_stat_fields(entry)
        if fields and int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def session_survivors(sid: int) -> list[int]:
    """Processes outliving the worker.  multiprocessing's resource tracker
    exits by itself once the worker's end of its pipe closes, so give it a
    moment before calling anything a leak."""
    give_up = time.monotonic() + SURVIVOR_GRACE_S
    while (pids := session_pids(sid)) and time.monotonic() < give_up:
        time.sleep(0.05)
    return pids


def launch_worker(args: list[str], deadline: float):
    """Run one worker; ``(result document | None, clean-machine checks)``."""
    shm_before = set(os.listdir("/dev/shm"))
    tree_before = tree_files()
    TMP.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(dir=TMP)  # flight-recorder bundles etc. land here
    result = os.path.join(cwd, "result.json")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--result", result],
        cwd=cwd, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        exit_detail = f"exit code {code}"
    except subprocess.TimeoutExpired:
        code = None
        exit_detail = "timed out"
    survivors = session_survivors(proc.pid)
    if code is None or survivors:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    doc = None
    if code == 0:
        with open(result) as fh:
            doc = json.load(fh)
    shutil.rmtree(cwd, ignore_errors=True)
    leaked_shm = sorted(set(os.listdir("/dev/shm")) - shm_before)
    new_files = sorted(tree_files() - tree_before)
    checks = [
        ("worker_exit", code == 0, exit_detail),
        ("no_surviving_children", not survivors, f"pids {survivors}" if survivors else ""),
        ("no_shm_leak", not leaked_shm, " ".join(leaked_shm)),
        ("tree_unchanged", not new_files, " ".join(new_files[:5])),
    ]
    return doc, [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]


def stat(values: list[float]) -> dict:
    return {
        "median": median(values), "min": min(values), "max": max(values),
        "n": len(values),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """One workload, measured and checked; the record both modes print."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        base += SMOKE_ARGS
    probe_before = host_probe_ms()
    checks, setups = [], []
    for _ in range(0 if smoke else EXTRA_SETUPS):
        doc, ops = launch_worker(base + ["--setup-only"], deadline)
        checks += ops
        if doc:
            setups.append(doc["setup"]["setup_s"])
    doc, ops = launch_worker(base + ["--trace", str(trace)], deadline)
    checks += ops
    probe_after = host_probe_ms()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host_probe_ms": [probe_before, probe_after],
        "noisy": abs(probe_after - probe_before) / probe_before > NOISY_DRIFT,
    }
    if doc is not None:  # else the failed worker_exit check is the record
        checks += doc["checks"]
        setups.append(doc["setup"]["setup_s"])
        record.update(
            mesh=doc["mesh"], host=doc["host"], solves=doc["solves"],
            end_to_end={
                "solve_wall_s": stat([s["wall_s"] for s in doc["solves"]]),
                "setup_s": stat(setups),
                "peak_rss_mb": stat([doc["peak_rss_mb"]]),
            },
        )
        if trace:
            layers = dict(doc["layers"])
            layers.update({k: doc["setup"][k] for k in SETUP_LAYERS})
            layers["bench.host_probe_ms"] = (probe_before + probe_after) / 2.0
            record["per_layer"] = layers
            record["spans"] = doc["spans"]
    record.update(
        checks=checks, attempted=len(checks),
        failed=sum(not c["ok"] for c in checks),
    )
    return record


def contract_result(spec: dict, record: dict, trace: int) -> dict:
    """The one-line result the contract asks for."""
    if trace:
        metrics = {
            m["name"]: {"value": record["per_layer"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": record["end_to_end"][m["name"]]["median"],
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(spec: dict, record: dict) -> None:
    print(f"{record['workload']}  seed={record['seed']}  "
          f"checks {record['attempted']}, failed {record['failed']}"
          f"  host probe {record['host_probe_ms'][0]:.2f} -> "
          f"{record['host_probe_ms'][1]:.2f} ms"
          + ("  NOISY HOST" if record["noisy"] else ""))
    for c in record["checks"]:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail']}")
    for m in spec["end_to_end"]:
        s = record.get("end_to_end", {}).get(m["name"])
        if s:
            print(f"  {m['name']:<34}{s['median']:>14.6g} {m['unit']:<6}"
                  f" (min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']})")
    for m in spec["per_layer"]:
        if m["name"] in record.get("per_layer", {}):
            print(f"  {m['name']:<34}{record['per_layer'][m['name']]:>14.6g} {m['unit']}")


# ---------------------------------------------------------------- selfcheck
def spec_errors(spec: dict) -> list[str]:
    """``BENCHMARK.json`` against the limits of the benchmark contract."""
    errs = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errs.append(f"unexpected top-level keys {sorted(spec)}")
        return errs
    if SPEC_PATH.stat().st_size > 64 * 1024:
        errs.append("file larger than 64 KiB")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        errs.append("run_seconds must be a whole number from 1 to 60")
    if not (len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])):
        errs.append("command too long")
    if not 1 <= len(spec["paths"]) <= 16:
        errs.append("paths must name 1 to 16 directories")
    shapes = (
        ("workloads", {"name", "why"}, 2, 8),
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    )
    names = []
    for key, fields, lo, hi in shapes:
        if not lo <= len(spec[key]) <= hi:
            errs.append(f"{key}: {len(spec[key])} entries, allowed {lo} to {hi}")
        for entry in spec[key]:
            if set(entry) != fields:
                errs.append(f"{key}: {entry} must have exactly {sorted(fields)}")
                continue
            names.append(entry["name"])
            if not NAME_RE.fullmatch(entry["name"]):
                errs.append(f"{key}: bad name {entry['name']!r}")
            if "unit" in entry and not UNIT_RE.fullmatch(entry["unit"]):
                errs.append(f"{key}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                errs.append(f"{key}: bad direction in {entry['name']}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                errs.append(f"{key}: bound of {entry['name']} outside (0, 0.25]")
            if "why" in entry and ("\n" in entry["why"] or len(entry["why"]) > 200):
                errs.append(f"{key}: why of {entry['name']} too long")
    if len(set(names)) != len(names):
        errs.append("a name is used twice")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errs.append("workloads differ from bench/workloads.py")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("end_to_end needs setup_s in s, lower is better")
    return errs


def record_errors(spec: dict, record: dict) -> list[str]:
    """One traced record against ``BENCHMARK.json`` and the result schema."""
    name = record["workload"]
    if "per_layer" not in record:
        return [f"{name}: the worker produced no result"]
    errs = [f"{name}: check {c['name']} failed: {c['detail']}"
            for c in record["checks"] if not c["ok"]]
    for key in ("end_to_end", "per_layer"):
        want = {m["name"] for m in spec[key]}
        got = set(record[key])
        if want != got:
            errs.append(f"{name}: {key} missing {sorted(want - got)}, "
                        f"undeclared {sorted(got - want)}")
    for trace in (0, 1):
        line = contract_result(spec, record, trace)
        if not (isinstance(line["attempted"], int) and line["attempted"] >= 1
                and isinstance(line["failed"], int)):
            errs.append(f"{name}: attempted/failed are not whole numbers")
        for metric, entry in line["metrics"].items():
            value = entry["value"]
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                errs.append(f"{name}: {metric} = {value!r} is not a finite number")
            elif trace == 0 and value <= 0:
                errs.append(f"{name}: end-to-end {metric} must never be 0")
    return errs


def selfcheck(spec: dict, seed: int) -> int:
    errs = spec_errors(spec)
    for name in WORKLOADS:
        record = run_workload(name, seed, 0.0, trace=1, smoke=True)
        print_record(spec, record)
        errs += record_errors(spec, record)
    for e in errs:
        print(f"SELFCHECK FAILED: {e}")
    print("selfcheck " + ("FAILED" if errs else "ok"))
    return 1 if errs else 0


# --------------------------------------------------------------------- main
def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7,
                    help="mesh seed (vertex jitter, relabelling) and partition seed")
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where the all-workload document goes")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"bench: no program to measure below {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.selfcheck:
        return selfcheck(spec, args.seed)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload:
        record = run_workload(args.workload, args.seed, seconds, args.trace)
        print_record(spec, record)
        if "end_to_end" not in record:
            return 1
        print(json.dumps(contract_result(spec, record, args.trace)))
        return 1 if record["failed"] else 0

    records = {}
    for name in WORKLOADS:
        records[name] = run_workload(name, args.seed, seconds, trace=1)
        print_record(spec, records[name])
    out = Path(args.out) if args.out else TMP / f"bench-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    host = next((r["host"] for r in records.values() if "host" in r), None)
    with open(out, "w") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "host": host,
                   "workloads": records}, fh, indent=1)
    print(f"wrote {out}")
    return 1 if any(r["failed"] for r in records.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
