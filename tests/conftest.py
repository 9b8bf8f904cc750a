"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet, TsInterval
from repro.core.timestamp import TS_INF, TS_ZERO, Timestamp

# Keep hypothesis snappy and deterministic in CI-style runs.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# -- strategies ----------------------------------------------------------------

def timestamps(min_value: float = 0.0, max_value: float = 100.0):
    """Finite timestamps on a small grid (collisions are interesting)."""
    values = st.one_of(
        st.integers(0, 20).map(float),
        st.floats(min_value=min_value, max_value=max_value,
                  allow_nan=False, allow_infinity=False),
    )
    pids = st.integers(-5, 5)
    return st.builds(Timestamp, value=values, pid=pids)


def grid_timestamps():
    """Timestamps on a dense grid (7 pids per value, the layout
    :func:`many_piece_sets` uses): equal values with pids one apart are
    common, so adjacency cases come up often."""
    return st.builds(Timestamp, value=st.integers(0, 40).map(float),
                     pid=st.integers(-3, 3))


def intervals():
    """Non-empty canonical closed intervals."""

    def build(a: Timestamp, b: Timestamp) -> TsInterval:
        return TsInterval(min(a, b), max(a, b))

    return st.builds(build, timestamps(), timestamps())


def interval_sets(max_pieces: int = 4):
    return st.lists(intervals(), min_size=0, max_size=max_pieces).map(
        IntervalSet)


def many_piece_sets(max_pieces: int = 48):
    """Sets of 1..``max_pieces`` pieces with endpoints on the dense grid.

    Random intervals overlap and merge into a few pieces; these pieces
    instead sit between strictly increasing grid points, like the sealed
    aggregates of a hot key.  Gaps of one grid step make neighbours
    adjacent, so some pieces still merge.
    """

    def build(gaps: list[int]) -> IntervalSet:
        points = []
        idx = 0
        for gap in gaps:
            idx += gap
            points.append(Timestamp(float(idx // 7), idx % 7 - 3))
        return IntervalSet(TsInterval(points[i], points[i + 1])
                           for i in range(0, len(points), 2))

    # Draw the piece count first: plain list strategies favour short lists.
    return st.integers(1, max_pieces).flatmap(
        lambda n: st.lists(st.integers(1, 3), min_size=2 * n,
                           max_size=2 * n)).map(build)


@pytest.fixture
def ts():
    """Shorthand timestamp factory."""

    def make(value: float, pid: int = 0) -> Timestamp:
        return Timestamp(value, pid)

    return make
