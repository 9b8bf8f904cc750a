#!/usr/bin/env python3
"""Host cost per simulated event against run length, for one workload.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload mvtil-contended --scales 0.5 2 1 0.5 2 1

Runs the workload's default-seed config with its measurement window
scaled by each factor and prints host microseconds per simulated event
inside the window, unscaled and in reference seconds (the inverse of what
``run.py`` reports as ``events_per_ref_s``).
A flat row means the benchmark's host rates do not depend on how long the
window is, so a change to window length cannot pass for a speed-up.
NOTES.md records the figures.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--scales", type=float, nargs="+",
                   default=[0.5, 2, 1, 0.5, 2, 1])
    args = p.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from run import ref_seconds, timed_run
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    base = wl.build(wl.default_seed)
    for scale in args.scales:
        config = replace(base, measure=base.measure * scale)
        gc.collect()
        _res, wall, slices = timed_run(config)
        window = sum(s for s, _, _ in slices)
        events = sum(n for _, n, _ in slices)
        ref_window = sum(ref_seconds(s, p) for s, _, p in slices)
        per_slice = [s / n * 1e6 for s, n, _ in slices]
        print(f"{args.workload} measure={config.measure:g}s "
              f"wall={wall:.2f}s window={window:.2f}s "
              f"window_events={events} "
              f"us_per_event={window / events * 1e6:.2f} "
              f"median_slice_us_per_event={statistics.median(per_slice):.2f} "
              f"ref_us_per_event={ref_window / events * 1e6:.2f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
