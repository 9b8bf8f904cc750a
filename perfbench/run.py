#!/usr/bin/env python3
"""The repository's benchmark: one seeded cluster workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mvtil-uniform --seed 1 \
        --seconds 40 --trace 0

The run builds the workload's ``ClusterConfig`` from ``--seed`` and then:

1. set-up: starts the program ``SETUP_PROBES`` times in a fresh
   interpreter and times process start through imports and cluster
   construction, up to the first simulated event (``--trace 0`` only);
2. timed repetitions: runs the same config in this process, untraced, as
   often as fits in ``--seconds`` (at least ``MIN_REPS`` times), timing
   the measurement window in ``SLICES`` equal simulated slices with a
   host-speed probe between slices, and reports host rates over all
   slices, scaled to a host of reference speed (see :func:`speed_probe`);
3. checks: every repetition must give the same simulated fingerprint, and
   one untimed ``record_history=True`` run of the workload with a
   ``HISTORY_MEASURE`` window must be MVSG-serializable;
4. ``--trace 1`` only: one more repetition under :class:`LayerTrace`, whose
   fingerprint must equal the untraced one; it reports per-layer self time
   and counts instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An attempt is one
cluster run whose output was checked; a failed one broke a check.  Any
failed check also makes the exit code 1.  A missing program source makes
it 2, with no result printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MIN_REPS = 2
SETUP_PROBES = 9
#: Equal simulated slices the measurement window is timed in.
SLICES = 40
#: Loop iterations of one host-speed probe.
PROBE_UNITS = 4000
#: Probe time of the reference host.  Host times are reported as if the
#: probe had taken this long (see :func:`ref_seconds`).
PROBE_REF_S = 5e-3
#: How the simulator's host time follows the probe's between the host's
#: fast and slow spells: ``host_s`` scales as ``probe_s ** PROBE_EXPONENT``.
#: Fitted by ``calibrate.py`` on repetitions of one seed inside one run,
#: which do the same work (NOTES.md).
PROBE_EXPONENT = 0.7
#: Measurement window of the untimed history run.  The MVSG check grows
#: faster than linearly with the window on hot keys, so it is kept short.
HISTORY_MEASURE = 0.25


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's default seed)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="host seconds of timed repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, default=None,
                   help="append the environment, metrics and fingerprint "
                        "as one JSON line to this file (see compare.py)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- helpers ----------------------------------------------------------------

def fingerprint(res) -> tuple:
    """Everything simulated a run reports; identical for equal seeds."""
    return (res.sim_events, res.messages_sent, res.committed, res.aborted,
            tuple(sorted((str(k), v) for k, v in res.abort_reasons.items())),
            json.dumps(res.latency_summary, sort_keys=True))


def environment(workload: str, seed: int) -> dict:
    import repro._fastcore as fastcore
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"workload": workload, "seed": seed,
            "backend": fastcore.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit or None,
            "src_sha256": digest.hexdigest()}


class _ProbeNode:
    __slots__ = ("weight", "next")


class _ProbeState:
    """Working set of the host-speed probe, about 8 MiB: a 65,536-entry
    dict read and written at scattered keys, a ring of 16,384 linked
    objects and a 1,024-entry heap of floats.  It is built on first use,
    so set-up probes do not pay for it; a probe step allocates no object
    the cyclic garbage collector tracks."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = {k: k for k in range(1 << 16)}
        self.keys = [rng.randrange(1 << 16) for _ in range(4096)]
        nodes = [_ProbeNode() for _ in range(1 << 14)]
        for i, node in enumerate(nodes):
            node.weight = i * 0.5
            node.next = nodes[(i * 40503) & ((1 << 14) - 1)]
        self.node = nodes[0]
        self.heap = sorted(rng.random() for _ in range(1024))


_PROBE: _ProbeState | None = None


def _probe_mix(s: int, i: int) -> int:
    return (s * 31 + i) & 0xFFFFFF


def _probe_pass(state: _ProbeState) -> float:
    table, keys, heap, node = state.table, state.keys, state.heap, state.node
    mix, pop, push = _probe_mix, heapq.heappop, heapq.heappush
    acc = 0.0
    s = 0
    t = time.perf_counter()
    for i in range(PROBE_UNITS):
        k = keys[i & 4095]
        s ^= table[k]
        table[k] = (s + i) & 0xFFFF
        node = node.next
        acc += node.weight
        push(heap, pop(heap) + 0.25)
        s = mix(s, i)
    elapsed = time.perf_counter() - t
    state.node = node
    return elapsed


def speed_probe() -> float:
    """Host seconds of a fixed pure-Python loop that calls no program code.

    A shared host runs the interpreter at speeds up to about 2x apart, in
    spells of seconds to minutes.  Timing this probe next to each piece of
    measured work and scaling that work's host time with
    :func:`ref_seconds` cancels the spell; a change to the program cannot
    move the probe.  Dict, attribute, heap and call steps over a
    working set of some MiB track the simulator's slow-downs more closely
    than a loop over a small dict does.  An untimed first pass reloads the
    working set into the caches, so what the measured work left there
    does not count.
    """
    global _PROBE
    if _PROBE is None:
        _PROBE = _ProbeState()
    _probe_pass(_PROBE)
    return _probe_pass(_PROBE)


def setup_probe(config) -> int:
    """Child side of the set-up timing: stop at the first simulated event."""
    from repro.dist.cluster import run_cluster
    from repro.sim.simulator import Simulator

    def first_event(sim, t_end):
        os._exit(0)

    Simulator.run_until = first_event
    run_cluster(config)
    return 1  # run_until was never reached


def time_setup(args: argparse.Namespace, seed: int) -> list[float]:
    """Host seconds of each set-up probe.  They are not scaled to
    reference seconds: the speed probe, run in this process, does not
    track a child's start-up (NOTES.md)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return times


def q(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    s = sorted(values)
    return s[min(len(s) - 1, int(pct / 100 * len(s)))] if s else 0.0


def timed_run(config) -> tuple:
    """Run ``config`` once, untraced.

    Returns ``(result, wall_s, slices)``: host seconds of the whole
    ``run_cluster`` call, and ``(host_s, events, probe_s)`` of each of the
    ``SLICES`` equal simulated slices of the measurement window, where
    ``probe_s`` is the mean of the speed probes run just before and just
    after the slice.  The simulator is advanced to the end of warm-up and
    then slice by slice; consecutive ``run_until`` calls process exactly
    the events one call would, in the same order.
    """
    from repro.dist.cluster import run_cluster
    from repro.sim.simulator import Simulator
    run_until = Simulator.run_until
    slices: list[tuple[float, int, float]] = []

    def sliced(sim, t_end):
        if slices:
            raise RuntimeError("run_cluster advanced the simulator twice; "
                               "the window cannot be timed")
        run_until(sim, config.warmup)
        probe = speed_probe()
        for i in range(1, SLICES + 1):
            events = sim.events_processed
            t = time.perf_counter()
            run_until(sim, t_end if i == SLICES else
                      config.warmup + config.measure * i / SLICES)
            host_s = time.perf_counter() - t
            previous, probe = probe, speed_probe()
            slices.append((host_s, sim.events_processed - events,
                           (previous + probe) / 2))

    Simulator.run_until = sliced
    try:
        t = time.perf_counter()
        res = run_cluster(config)
        wall = time.perf_counter() - t
    finally:
        Simulator.run_until = run_until
    return res, wall, slices


# -- metrics ----------------------------------------------------------------

def ref_seconds(host_s: float, probe_s: float) -> float:
    """``host_s``, measured next to probes taking ``probe_s``, scaled to
    the reference host speed."""
    return host_s * (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def end_to_end(res, slices: list[tuple[float, int, float]],
               setup: list[float], peak_rss_mb: float) -> dict:
    """The eight end-to-end metrics.  The host rates are in reference
    seconds (:func:`ref_seconds`), set-up in host seconds.  The event rate is all window events
    of every repetition over their reference seconds; commits per
    reference second are that rate times the window's (exact) commits per
    event."""
    lat = res.latency_summary
    attempts = lat["committed"]["count"] + lat["aborted"]["count"]
    events_per_s = (sum(n for _, n, _ in slices)
                    / sum(ref_seconds(s, p) for s, _, p in slices))
    window_events = sum(n for _, n, _ in slices[:SLICES])
    return {
        "commits_per_ref_s": (events_per_s * res.committed / window_events,
                              "tx/ref-s"),
        "events_per_ref_s": (events_per_s, "events/ref-s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "sim_throughput_tps": (res.throughput, "tx/s"),
        "sim_latency_p50_ms": (lat["committed"]["p50"] * 1e3, "ms"),
        "sim_latency_p99_ms": (lat["committed"]["p99"] * 1e3, "ms"),
        "commit_ratio": (lat["committed"]["count"] / attempts, "ratio"),
    }


def per_layer(tr, res, traced_wall: float, untraced_wall: float) -> dict:
    from tracing import CLIENT_OPS, KERNELS, LAYERS, LOCK_FNS, VERSION_FNS
    self_s, calls = tr.self_times()
    commits = sum(c.stats["commits"] for c in tr.clients)
    attempts = calls.get("client.begin", 0)
    out: dict[str, tuple[float, str]] = {}

    def span(prefix: str, name: str) -> None:
        key = f"{prefix}.{name}"
        out[f"{key}.calls"] = (calls.get(key, 0), "count")
        out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")

    out["simulator.events"] = (res.sim_events, "count")
    out["simulator.events_per_commit"] = (res.sim_events / commits,
                                          "events/tx")
    out["simulator.self_s"] = (self_s.get("simulator.run_until", 0.0), "s")
    span("network", "send")
    out["network.deliver.self_s"] = (self_s.get("network.deliver", 0.0),
                                     "s")
    out["network.messages_per_commit"] = (res.messages_per_commit, "msgs/tx")
    out["queue.submit.calls"] = (calls.get("queue.submit", 0), "count")
    out["queue.self_s"] = (self_s.get("queue.submit", 0.0)
                           + self_s.get("queue.complete", 0.0), "s")
    out["queue.wait_sim_ms.p50"] = (q(tr.queue_waits, 50) * 1e3, "ms")
    out["queue.wait_sim_ms.p99"] = (q(tr.queue_waits, 99) * 1e3, "ms")
    out["queue.wait_sim_ms.mean"] = (
        statistics.fmean(tr.queue_waits) * 1e3 if tr.queue_waits else 0.0,
        "ms")
    for msg in SERVER_MESSAGES:
        span("server", msg)
    out["server.parked"] = (sum(s.stats["parked"] for s in tr.servers),
                            "count")
    for op in CLIENT_OPS:
        span("client", op)
    out["client.attempts"] = (attempts, "count")
    out["client.useful_attempt_ratio"] = (commits / attempts, "ratio")
    out["client.rpc_retries"] = (sum(c.stats["rpc_retries"]
                                     for c in tr.clients), "count")
    out["runner.self_s"] = (self_s.get("runner.closed_loop", 0.0), "s")
    for fn in LOCK_FNS:
        span("locks", fn)
    counts = tr.counts
    out["locks.partial_grant_ratio"] = (
        counts["partial_grants"] / max(1, counts["lock_probes"]), "ratio")
    out["locks.records_end"] = (sum(s.locks.total_record_count()
                                    for s in tr.servers), "count")
    for k in KERNELS:
        span("kernel", k)
        pieces, inputs = tr.pieces[k]
        out[f"kernel.{k}.pieces_in"] = (pieces / max(1, inputs), "pieces")
    for fn in VERSION_FNS:
        span("versions", fn)
    out["versions.count_end"] = (sum(s.store.version_count()
                                     for s in tr.servers), "count")
    span("workload", "next_tx")
    out["gc.rounds"] = (counts["gc_rounds"], "count")
    out["gc.records_purged"] = (counts["records_purged"], "count")
    out["gc.versions_purged"] = (counts["versions_purged"], "count")
    attributed = sum(self_s.values())
    for prefix, layer in LAYERS.items():
        share = sum(v for k, v in self_s.items()
                    if k.split(".")[0] == prefix) / traced_wall
        out[f"share.{layer}"] = (share, "ratio")
    out["share.kernels_and_locks"] = (out["share.fastcore.kernels"][0]
                                      + out["share.core.locks"][0], "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.unattributed_s"] = (traced_wall - attributed, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (len(tr.start), "count")
    return out


#: Server request classes the workloads send.
SERVER_MESSAGES = ("MVTLReadReq", "MVTLBatchLockReq", "CommitReq",
                   "ReleaseReq", "PurgeReq")


def declared_metrics(trace: int) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# -- main -------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    config = wl.build(seed)
    if args.setup_probe:
        return setup_probe(config)

    from repro.dist.cluster import run_cluster
    from repro.verify import check_serializable

    env = environment(args.workload, seed)
    print("env", json.dumps(env, sort_keys=True), flush=True)
    setup = [] if args.trace else time_setup(args, seed)

    walls: list[float] = []
    slices: list[tuple[float, int, float]] = []
    prints: list[tuple] = []
    t0 = time.perf_counter()
    while (len(walls) < MIN_REPS or time.perf_counter() - t0
           + statistics.mean(walls) <= args.seconds):
        res = None  # let the previous repetition's state be freed
        gc.collect()
        res, wall, rep_slices = timed_run(config)
        walls.append(wall)
        slices += rep_slices
        prints.append(fingerprint(res))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # (run, reason) for every failed check; run None = the benchmark itself.
    failures = [(f"rep{i}", "fingerprint differs from repetition 0")
                for i, fp in enumerate(prints) if fp != prints[0]]

    hist = run_cluster(replace(config, record_history=True,
                               measure=HISTORY_MEASURE))
    mvsg = check_serializable(hist.history)
    if not mvsg.serializable:
        failures.append(("history", f"not serializable: {mvsg}"))
    del hist
    attempted = len(walls) + 1

    if args.trace:
        from tracing import LayerTrace
        gc.collect()
        with LayerTrace() as tr:
            t = time.perf_counter()
            traced = run_cluster(config)
            traced_wall = time.perf_counter() - t
        attempted += 1
        if fingerprint(traced) != prints[0]:
            failures.append(("traced", "fingerprint differs from untraced"))
        metrics = per_layer(tr, traced, traced_wall,
                            statistics.median(walls))
        tr.write(OUT / f"trace-{args.workload}-{seed}.npz")
    else:
        metrics = end_to_end(res, slices, setup, peak_rss_mb)

    lat = res.latency_summary["committed"]
    print(f"{args.workload} seed={seed} backend={env['backend']} "
          f"reps={len(walls)} walls_s={[round(w, 3) for w in walls]} "
          f"setup_probes={len(setup)} latency_samples={lat['count']} "
          f"committed={res.committed} abandoned={res.aborted} "
          f"mvsg_edges={mvsg.num_edges}")
    probes_ms = sorted(p * 1e3 for *_, p in slices)
    print(f"host: probe_ms median={statistics.median(probes_ms):.3f} "
          f"range={probes_ms[0]:.3f}-{probes_ms[-1]:.3f} "
          f"(reference {PROBE_REF_S * 1e3:g}); unscaled window rate "
          f"{sum(n for _, n, _ in slices) / sum(s for s, _, _ in slices):.0f}"
          f" events/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        failures.append((None, "metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(metrics))}"))
    for run, reason in failures:
        print(f"FAIL {run or 'benchmark'}: {reason}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len({run for run, _ in failures if run}),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    if args.record is not None:
        with args.record.open("a") as f:
            f.write(json.dumps({"env": env, "trace": args.trace,
                                "walls": walls, "slices": slices,
                                "metrics": result["metrics"],
                                "fingerprint": list(prints[0][:5])}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
