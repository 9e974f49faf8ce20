#!/usr/bin/env python3
"""Compare two documents written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json     A is the parent, B the change
    python3 bench/compare.py --self            run the benchmark twice, compare

One row per (end-to-end metric, workload) with both medians, min/max and a
verdict by the bound fixed in ``BENCHMARK.json``:

    regressed   B's median is worse than A's by more than the bound
    improved    B's median is better than A's by more than the bound
    unresolved  a side was measured on a noisy host, or the runs of a side
                spread wider than the bound without every run of B beating
                every run of A
    unchanged   otherwise

Per-layer changes are listed under the row they explain.  Exit code 1 on
any regression; ``--self`` also fails on an unresolved row and on a count
metric that did not repeat exactly (the reproducibility criterion).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import SETUP_LAYERS, TMP, load_spec

RUN = Path(__file__).resolve().parent / "run.py"


def verdict(a: dict, b: dict, bound: float, better: str, noisy: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    if noisy:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    spread = max((s["max"] - s["min"]) / abs(s["median"]) for s in (a, b))
    b_always_better = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
    if spread > bound and not b_always_better:
        return "unresolved"
    return "unchanged"


def layer_lines(spec: dict, a: dict, b: dict, setup: bool) -> list[str]:
    lines = []
    for m in spec["per_layer"]:
        name = m["name"]
        if (name in SETUP_LAYERS) != setup:
            continue
        va, vb = a.get(name, 0), b.get(name, 0)
        if not va and not vb:
            continue  # the layer does not run on this workload
        change = f"{(vb - va) / abs(va):+8.1%}" if va else "     new"
        lines.append(f"      {name:<34}{va:>12.6g} -> {vb:<12.6g}{m['unit']:<9}{change}")
    return lines


def compare(spec: dict, doc_a: dict, doc_b: dict) -> dict[str, list[str]]:
    """Print the table; return the rows by verdict."""
    by_verdict: dict[str, list[str]] = {}
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            continue
        print(name)
        frac_a = wa["failed"] / wa["attempted"]
        frac_b = wb["failed"] / wb["attempted"]
        v = ("regressed" if frac_b > frac_a
             else "improved" if frac_b < frac_a else "unchanged")
        by_verdict.setdefault(v, []).append(f"{name} failed_frac")
        print(f"  {'failed_frac':<14}{frac_a:>10.4g} -> {frac_b:<10.4g}{'fraction':<9}{v}")
        if "end_to_end" not in wa or "end_to_end" not in wb:
            continue  # a worker crashed: nothing but the failure to compare
        noisy = wa["noisy"] or wb["noisy"]
        for m in spec["end_to_end"]:
            a, b = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            # a busy host slows clocks, it does not grow memory
            v = verdict(a, b, m["bound"], m["better"], noisy and m["unit"] == "s")
            by_verdict.setdefault(v, []).append(f"{name} {m['name']}")
            print(
                f"  {m['name']:<14}{a['median']:>10.4g} -> {b['median']:<10.4g}"
                f"{m['unit']:<9}{(b['median'] - a['median']) / abs(a['median']):+7.1%}"
                f" (bound {m['bound']:.0%})  {v}"
                f"   A [{a['min']:.4g}, {a['max']:.4g}] n={a['n']}"
                f"  B [{b['min']:.4g}, {b['max']:.4g}] n={b['n']}"
            )
            if m["name"] in ("solve_wall_s", "setup_s"):
                for line in layer_lines(spec, wa.get("per_layer", {}),
                                        wb.get("per_layer", {}),
                                        setup=m["name"] == "setup_s"):
                    print(line)
    return by_verdict


def unequal_counts(spec: dict, doc_a: dict, doc_b: dict) -> list[str]:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    out = []
    for name, wa in doc_a["workloads"].items():
        la = wa.get("per_layer", {})
        lb = doc_b["workloads"].get(name, {}).get("per_layer", {})
        out += [f"{name} {c}: {la.get(c)} != {lb.get(c)}"
                for c in counts if la.get(c) != lb.get(c)]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("documents", nargs="*", metavar="JSON")
    ap.add_argument("--self", action="store_true", dest="self_compare")
    ap.add_argument("--seed", type=int, default=7, help="seed of the --self runs")
    args = ap.parse_args()
    spec = load_spec()
    if args.self_compare:
        paths = [TMP / f"self-{side}.json" for side in "AB"]
        for path in paths:
            subprocess.run(
                [sys.executable, str(RUN), "--seed", str(args.seed), "--out", str(path)],
                stdout=sys.stderr,
            )
    elif len(args.documents) == 2:
        paths = [Path(p) for p in args.documents]
    else:
        ap.error("give two documents, or --self")
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))

    by_verdict = compare(spec, *docs)
    for v in ("regressed", "unresolved"):
        for row in by_verdict.get(v, []):
            print(f"{v.upper()}: {row}")
    bad = list(by_verdict.get("regressed", []))
    if args.self_compare:
        bad += by_verdict.get("unresolved", [])
        mismatched = unequal_counts(spec, *docs)
        for row in mismatched:
            print(f"COUNT DID NOT REPEAT: {row}")
        bad += mismatched
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
