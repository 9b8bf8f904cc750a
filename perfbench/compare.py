#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric and workload by
workload.

Usage::

    python3 perfbench/run.py --workload W --seed S --record base.jsonl ...
    python3 perfbench/run.py --workload W --seed S --record cand.jsonl ...
    python3 perfbench/compare.py base.jsonl cand.jsonl

Records of the two sets are paired in file order per workload (alternate
which side runs first when collecting them).  Per end-to-end metric it
prints both medians and quartiles, the candidate's wins out of the pairs,
and a verdict:

* ``gain``: the candidate wins at least nine tenths of the pairs and the
  medians differ by more than the baseline's quartile distance;
* ``regression``: the candidate's median is worse by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved``: the baseline's own spread is wider than the bound and
  the candidate does not beat every baseline run;
* ``same`` otherwise.

Sets recorded on different kernel backends, Python versions or CPU counts
are refused: their host times do not compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("backend", "python", "nproc")


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            by_workload.setdefault(rec["env"]["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], cand: list[float], bound: float,
            higher: bool) -> tuple[str, int]:
    sign = 1 if higher else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, cand))
    b1, bm, b3 = quartiles(base)
    cm = quartiles(cand)[1]
    spread = b3 - b1
    if wins >= 0.9 * min(len(base), len(cand)) and abs(cm - bm) > spread:
        return "gain", wins
    if sign * (cm - bm) < -bound * abs(bm):
        return "regression", wins
    if spread > bound * abs(bm) and not all(
            sign * (c - b) > 0 for c in cand for b in base):
        return "unresolved", wins
    return "same", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = load(argv[0]), load(argv[1])
    envs = {tuple(r["env"][k] for k in ENV_KEYS)
            for side in (base, cand) for recs in side.values() for r in recs}
    if len(envs) > 1:
        print(f"refused: records come from different environments "
              f"{ENV_KEYS}: {sorted(envs)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in sorted(set(base) & set(cand)):
        print(f"{workload}: {len(base[workload])} baseline, "
              f"{len(cand[workload])} candidate runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in cand[workload]]
            v, wins = verdict(b, c, m["bound"], m["better"] == "higher")
            (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
            print(f"  {name:22s} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"cand {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
                  f"x{cm / bm if bm else float('nan'):.4f}  "
                  f"wins {wins}/{min(len(b), len(c))}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
