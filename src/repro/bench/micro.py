"""Seeded microbenchmark of the fast-core kernels (``repro.bench micro``).

The full-cluster BENCH numbers mix protocol logic, the event loop, and the
kernels; this benchmark times the kernels *alone* — the interval algebra
(``iv_intersect``/``iv_union``/``iv_subtract``/``iv_contains``) and the
version-chain bisects (``floor_before``/``install``/``purge_before``) — so
a speedup (or regression) is attributable below the cluster level.

Besides the all-pairs corpus of small sets, a one-vs-many corpus pairs a
single piece with a ``MANY_PIECES``-piece set, in alternating argument
order: the shape of the lock table's probes of, and seals into, a hot
key's sealed aggregates, which the pure kernels serve by binary search.

The corpus is generated from a seeded RNG and is identical for both
backends; the active backend (``repro._fastcore.BACKEND``) is whatever the
process imported, so CI runs this once per ``REPRO_FASTCORE`` setting.
When the compiled backend is active, every timed call is also cross-checked
against the pure-Python reference on a sample of the corpus — a differential
smoke on exactly the inputs being timed.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .._fastcore import (BACKEND, iv_contains, iv_intersect, iv_subtract,
                         iv_union)
from .._fastcore import kernels as _pure
from ..core.intervals import IntervalSet, TsInterval
from ..core.timestamp import Timestamp
from ..core.versions import VersionStore

__all__ = ["run_micro"]

#: Interval-set corpus size; ops run all-pairs-ish slices of it.
SETS = 400
#: Pieces of the many side in the one-vs-many corpus: the mean
#: ``iv_union`` input measured on the ``mvtil-contended`` benchmark
#: workload.
MANY_PIECES = 36
#: Version-chain corpus: keys x versions installed per key.
VC_KEYS = 50
VC_VERSIONS = 400


def _random_set(rng: np.random.Generator, max_pieces: int = 6) -> IntervalSet:
    """A normalized interval set of 1..max_pieces random closed pieces."""
    pieces = []
    for _ in range(int(rng.integers(1, max_pieces + 1))):
        lo = float(rng.integers(0, 10_000)) / 16.0
        width = float(rng.integers(0, 500)) / 16.0
        a = Timestamp(lo, int(rng.integers(0, 4)))
        b = Timestamp(lo + width, int(rng.integers(0, 4)))
        pieces.append(TsInterval.closed(min(a, b), max(a, b)))
    return IntervalSet(pieces)


def _many_piece_set(rng: np.random.Generator, pieces: int) -> IntervalSet:
    """``pieces`` disjoint pieces between sorted distinct grid points."""
    points = np.sort(rng.choice(10_000, size=2 * pieces, replace=False))
    return IntervalSet(
        TsInterval.closed(Timestamp(float(points[i]) / 16.0, 0),
                          Timestamp(float(points[i + 1]) / 16.0, 3))
        for i in range(0, 2 * pieces, 2))


def _time(label: str, n_ops: int, fn: Callable[[], None],
          rows: list[tuple[str, int, float]]) -> None:
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    rows.append((label, n_ops, wall))


def run_micro(seed: int = 2026, repeat: int = 3) -> int:
    """Time the kernel corpus ``repeat`` times; report best-of ops/s."""
    rng = np.random.default_rng(seed)
    sets = [_random_set(rng) for _ in range(SETS)]
    flats = [s.flat for s in sets]
    probes = [(float(rng.integers(0, 10_500)) / 16.0, int(rng.integers(0, 4)))
              for _ in range(SETS)]
    # Pair each set with a rotated partner: deterministic, mostly
    # overlapping (same value range), so the kernels do real merge work.
    pairs = [(flats[i], flats[(i + 1) % SETS]) for i in range(SETS)]
    # One piece (a request or a sealed lock) against a sealed aggregate,
    # both argument orders: probes pass the piece first, seals second.
    one_many = []
    for i in range(SETS):
        one = _random_set(rng, max_pieces=1).flat
        many = _many_piece_set(rng, MANY_PIECES).flat
        one_many.append((one, many) if i % 2 else (many, one))

    # Version-chain corpus: per-key install order is a seeded shuffle of a
    # sorted timeline, so installs hit interior bisect positions.
    timelines = []
    for k in range(VC_KEYS):
        ts = [Timestamp(float(t) / 8.0, k % 4)
              for t in range(1, VC_VERSIONS + 1)]
        order = rng.permutation(VC_VERSIONS)
        timelines.append((f"k{k:04d}", ts, order))

    def bench_pairwise(op, corpus=pairs):
        def run():
            for a, b in corpus:
                op(a, b)
        return run

    def bench_contains():
        for flat, (v, p) in zip(flats, probes):
            iv_contains(flat, v, p)

    def bench_vc_install(store: VersionStore):
        def run():
            for key, ts, order in timelines:
                for i in order:
                    store.install(key, ts[i], f"v{i}")
        return run

    def bench_vc_floor(store: VersionStore):
        def run():
            for key, ts, _ in timelines:
                for t in ts:
                    store.latest_before(key, t)
        return run

    def bench_vc_purge():
        store = VersionStore()
        for key, ts, order in timelines:
            for i in order:
                store.install(key, ts[i], f"v{i}")
        bound = Timestamp(float(VC_VERSIONS) / 16.0, 0)
        store.purge_before(bound)

    print(f"== micro: fast-core kernels, backend={BACKEND}, "
          f"seed={seed}, best of {repeat} ==")
    best: dict[str, tuple[int, float]] = {}
    for _ in range(repeat):
        rows: list[tuple[str, int, float]] = []
        _time("iv_intersect", len(pairs), bench_pairwise(iv_intersect), rows)
        _time("iv_union", len(pairs), bench_pairwise(iv_union), rows)
        _time("iv_subtract", len(pairs), bench_pairwise(iv_subtract), rows)
        for name, op in (("iv_intersect", iv_intersect),
                         ("iv_union", iv_union),
                         ("iv_subtract", iv_subtract)):
            _time(f"{name} 1v{MANY_PIECES}", len(one_many),
                  bench_pairwise(op, one_many), rows)
        _time("iv_contains", len(flats), bench_contains, rows)
        store = VersionStore()
        _time("vc_install", VC_KEYS * VC_VERSIONS,
              bench_vc_install(store), rows)
        _time("vc_floor_before", VC_KEYS * VC_VERSIONS,
              bench_vc_floor(store), rows)
        _time("vc_purge_before", VC_KEYS * VC_VERSIONS, bench_vc_purge, rows)
        for label, n, wall in rows:
            prev = best.get(label)
            if prev is None or wall < prev[1]:
                best[label] = (n, wall)

    for label, (n, wall) in best.items():
        rate = n / wall if wall > 0 else float("inf")
        print(f"  {label:>17s}: {rate:>12,.0f} ops/s  "
              f"({n} ops in {wall * 1e3:.2f} ms)")

    failures = []
    if BACKEND == "c":
        # Differential smoke on the timed corpora: the compiled kernels
        # must agree with the pure reference on every sampled input.
        for a, b in pairs[:100] + one_many[:100]:
            for name, fast, pure in (
                    ("iv_intersect", iv_intersect, _pure.iv_intersect),
                    ("iv_union", iv_union, _pure.iv_union),
                    ("iv_subtract", iv_subtract, _pure.iv_subtract)):
                got, want = fast(a, b), pure(a, b)
                if got != want:
                    failures.append(f"{name}({a!r}, {b!r}): "
                                    f"c={got!r} pure={want!r}")
        for flat, (v, p) in zip(flats[:100], probes[:100]):
            if iv_contains(flat, v, p) != _pure.iv_contains(flat, v, p):
                failures.append(f"iv_contains({flat!r}, {v}, {p}) diverged")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("micro: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
