#!/usr/bin/env python3
"""Fit ``run.PROBE_EXPONENT`` from recorded runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload W --seed S --record rec.jsonl ...
    python3 perfbench/calibrate.py rec.jsonl [more.jsonl ...]

The repetitions of one run replay the same seed, so they do the same
simulated work; between two of them only the host's speed differs.  For
every pair of repetitions of a run this takes the log ratio of their
window event rates and the log ratio of their probe times (each time the
probe's harmonic mean weighted by slice host time), and fits the slope
through all pairs of all files: the exponent with which the simulator's
host time follows the probe's.  It then prints, for a few exponents
around the fit, the quartile spread over the median
(``statistics.quantiles(values, n=4)``) of the runs' scaled event rates,
per file.
"""

from __future__ import annotations

import json
import math
import statistics
import sys

from run import PROBE_REF_S, SLICES


def rep_stats(record: dict) -> list[tuple[float, float]]:
    """``(events per host second, probe seconds)`` of each repetition."""
    slices = record["slices"]
    out = []
    for i in range(0, len(slices), SLICES):
        rep = slices[i:i + SLICES]
        host_s = sum(s for s, _, _ in rep)
        probe_s = host_s / sum(s / p for s, _, p in rep)
        out.append((sum(n for _, n, _ in rep) / host_s, probe_s))
    return out


def scaled_rate(record: dict, exponent: float) -> float:
    return (sum(n for _, n, _ in record["slices"])
            / sum(s * (PROBE_REF_S / p) ** exponent
                  for s, _, p in record["slices"]))


def main(paths: list[str]) -> int:
    files = {path: [json.loads(line) for line in open(path)]
             for path in paths}
    xs, ys = [], []
    for records in files.values():
        for stats in map(rep_stats, records):
            for i, (rate_i, probe_i) in enumerate(stats):
                for rate_j, probe_j in stats[i + 1:]:
                    xs.append(math.log(probe_i / probe_j))
                    ys.append(-math.log(rate_i / rate_j))
    if len(xs) < 2:
        print("calibrate: need runs with at least two repetitions")
        return 1
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    fit = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
           / sum((x - mx) ** 2 for x in xs))
    print(f"fitted exponent {fit:.3f} over {len(xs)} repetition pairs")
    for exponent in sorted({0.0, 0.5, round(fit, 1), 1.0}):
        for path, records in files.items():
            rates = [scaled_rate(r, exponent) for r in records]
            if len(rates) >= 2:
                q1, _, q3 = statistics.quantiles(rates, n=4)
                print(f"  exponent {exponent:.1f} {path}: spread "
                      f"{(q3 - q1) / statistics.median(rates):.3f} "
                      f"over {len(rates)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
