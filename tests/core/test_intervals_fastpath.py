"""Property tests: single-interval fast paths vs the general path, and the
flat-array kernels vs the object-level reference — on *both* backends.

The PR-5 hot-path work gave :class:`IntervalSet` dedicated branches for the
ubiquitous one-piece case (and for raw :class:`TsInterval` operands).
These tests pin them to reference implementations of the original
general/normalized algorithms on randomized inputs, so the fast paths can
never drift from the semantics they shortcut.

The fast-core work then moved the algebra onto flat quad tuples with two
interchangeable kernel implementations (``repro._fastcore.kernels`` pure
Python, ``repro._fastcore._kernels_c`` compiled).  Every kernel property
here runs parametrized over both: the compiled backend must agree with the
pure one — and both with the object-level reference — input for input.
The compiled parametrization skips cleanly when the extension isn't built.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._fastcore import kernels as pure_kernels
from repro.core.intervals import EMPTY_SET, IntervalSet, TsInterval, ts_succ
from repro.core.timestamp import Timestamp
from tests.conftest import (grid_timestamps, interval_sets, intervals,
                            many_piece_sets, timestamps)

try:
    from repro._fastcore import _kernels_c as c_kernels
except ImportError:  # extension not built: pure-only environment
    c_kernels = None

BACKENDS = [
    pytest.param(pure_kernels, id="pure"),
    pytest.param(c_kernels, id="c",
                 marks=pytest.mark.skipif(
                     c_kernels is None,
                     reason="compiled fast-core backend not built")),
]


# -- reference implementations (the pre-fast-path general algorithms) --------

def ref_intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = []
    for x in a.pieces:
        for y in b.pieces:
            got = x.intersect(y)
            if got is not None:
                out.append(got)
    return IntervalSet(out)


def ref_union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet(list(a.pieces) + list(b.pieces))


def ref_subtract(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    pieces = list(a.pieces)
    for y in b.pieces:
        pieces = [q for x in pieces for q in x.subtract(y)]
    return IntervalSet(pieces)


def assert_normalized(s: IntervalSet) -> None:
    """Pieces must be sorted, disjoint, and non-adjacent."""
    for p, q in zip(s.pieces, s.pieces[1:]):
        assert p.hi < q.lo, f"unsorted/overlapping pieces: {p} {q}"
        assert ts_succ(p.hi) < q.lo, f"adjacent unmerged pieces: {p} {q}"


# -- agreement on arbitrary sets (1-piece inputs hit the fast paths) ---------

class TestAgainstReference:
    @given(interval_sets(), interval_sets())
    def test_intersect(self, a, b):
        got = a.intersect(b)
        assert got == ref_intersect(a, b)
        assert_normalized(got)

    @given(interval_sets(), interval_sets())
    def test_union(self, a, b):
        got = a.union(b)
        assert got == ref_union(a, b)
        assert_normalized(got)

    @given(interval_sets(), interval_sets())
    def test_subtract(self, a, b):
        got = a.subtract(b)
        assert got == ref_subtract(a, b)
        assert_normalized(got)


class TestSinglePieceExplicit:
    """Force the 1x1 fast path and compare against the reference."""

    @given(intervals(), intervals())
    def test_intersect(self, x, y):
        a, b = IntervalSet.from_interval(x), IntervalSet.from_interval(y)
        assert a.intersect(b) == ref_intersect(a, b)

    @given(intervals(), intervals())
    def test_union(self, x, y):
        a, b = IntervalSet.from_interval(x), IntervalSet.from_interval(y)
        assert a.union(b) == ref_union(a, b)

    @given(intervals(), intervals())
    def test_subtract(self, x, y):
        a, b = IntervalSet.from_interval(x), IntervalSet.from_interval(y)
        assert a.subtract(b) == ref_subtract(a, b)


class TestRawIntervalOperand:
    """Passing a TsInterval must equal passing its one-piece IntervalSet."""

    @given(interval_sets(), intervals())
    def test_intersect(self, a, y):
        assert a.intersect(y) == a.intersect(IntervalSet.from_interval(y))

    @given(interval_sets(), intervals())
    def test_union(self, a, y):
        assert a.union(y) == a.union(IntervalSet.from_interval(y))

    @given(interval_sets(), intervals())
    def test_subtract(self, a, y):
        assert a.subtract(y) == a.subtract(IntervalSet.from_interval(y))


class TestEmptyIdentities:
    @given(interval_sets())
    def test_empty_ops(self, a):
        assert a.intersect(EMPTY_SET) == EMPTY_SET
        assert EMPTY_SET.intersect(a) == EMPTY_SET
        assert a.union(EMPTY_SET) == a
        assert EMPTY_SET.union(a) == a
        assert a.subtract(EMPTY_SET) == a
        assert EMPTY_SET.subtract(a) == EMPTY_SET

    @given(intervals())
    def test_empty_set_with_raw_interval(self, y):
        assert EMPTY_SET.union(y) == IntervalSet.from_interval(y)
        assert EMPTY_SET.intersect(y) == EMPTY_SET
        assert EMPTY_SET.subtract(y) == EMPTY_SET

    @given(intervals())
    def test_self_inverse(self, y):
        a = IntervalSet.from_interval(y)
        assert a.subtract(a) == EMPTY_SET
        assert a.intersect(a) == a
        assert a.union(a) == a


# -- flat kernels, both backends, vs the object-level reference --------------

@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelBackends:
    """Each kernel must match the reference algorithms on both backends.

    The reference side goes through :class:`IntervalSet` piece objects (the
    pre-flat semantics); the kernel side operates on raw ``.flat`` quads.
    Equality of the resulting flats is exact tuple equality — the
    byte-identity contract the dual-backend CI job enforces end to end.
    """

    @given(interval_sets(), interval_sets())
    def test_intersect(self, backend, a, b):
        assert backend.iv_intersect(a.flat, b.flat) == ref_intersect(a, b).flat

    @given(interval_sets(), interval_sets())
    def test_union(self, backend, a, b):
        assert backend.iv_union(a.flat, b.flat) == ref_union(a, b).flat

    @given(interval_sets(), interval_sets())
    def test_subtract(self, backend, a, b):
        assert backend.iv_subtract(a.flat, b.flat) == ref_subtract(a, b).flat

    @given(interval_sets(), timestamps())
    def test_contains(self, backend, a, ts):
        want = any(piece.contains(ts) for piece in a.pieces)
        assert backend.iv_contains(a.flat, ts.value, ts.pid) == want

    @given(interval_sets(), interval_sets())
    def test_normalize(self, backend, a, b):
        # Feeding both sets' quads, interleaved and unsorted, must
        # renormalize to exactly the union's flat.
        quads = []
        for flat in (b.flat, a.flat):
            for i in range(0, len(flat), 4):
                quads.append(tuple(flat[i:i + 4]))
        assert backend.iv_normalize(quads) == ref_union(a, b).flat

    @given(interval_sets())
    def test_normalize_idempotent(self, backend, a):
        quads = [tuple(a.flat[i:i + 4]) for i in range(0, len(a.flat), 4)]
        assert backend.iv_normalize(quads) == a.flat


@st.composite
def one_vs_many(draw):
    """A one-piece operand (a range or a point, like a write lock) and a
    many-piece set.

    The piece's endpoints are mostly the set's endpoints or their pid
    neighbours — where the one-vs-many paths draw their boundaries — as
    fresh float objects, so tie rules stay visible to ``is`` checks.
    """
    many = draw(many_piece_sets())
    f = many.flat
    marks = [Timestamp(f[i] + 0.0, f[i + 1] + d)
             for i in range(0, len(f), 2) for d in (-1, 0, 1)]
    point = st.one_of(st.sampled_from(marks), grid_timestamps(),
                      timestamps())
    a = draw(point)
    b = draw(st.one_of(st.just(a), point))
    return TsInterval(min(a, b), max(a, b)), many


def assert_identity_contract(got: tuple, a: tuple, b: tuple,
                             want: tuple) -> None:
    """A result equal to an operand IS that operand (``a`` first);
    otherwise every value scalar is the very object the reference picked
    from the inputs — which also pins the tie rules (equal ``lo``: ``a``'s
    piece first; equal endpoints: ``a``'s kept)."""
    if want == a:
        assert got is a
    elif want == b:
        assert got is b
    else:
        assert all(x is y for x, y in zip(got[::2], want[::2]))


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneVsMany:
    """One piece against up to 48 pieces, in both argument orders.

    This is the lock table's hot shape on contended keys (a request or a
    sealed lock against a sealed aggregate), and the shape the pure
    kernels' binary-search paths serve; ``interval_sets`` above stays at
    four pieces and rarely reaches them.  The boundary cases (equal or
    adjacent endpoints) are a few percent of draws, hence more examples.
    """

    @staticmethod
    def check(op, ref, one: IntervalSet, many: IntervalSet) -> None:
        for a, b in ((one, many), (many, one)):
            got = op(a.flat, b.flat)
            want = ref(a, b).flat
            assert got == want
            assert_identity_contract(got, a.flat, b.flat, want)

    @settings(max_examples=300)
    @given(one_vs_many())
    def test_union(self, backend, case):
        piece, many = case
        self.check(backend.iv_union, ref_union,
                   IntervalSet.from_interval(piece), many)

    @settings(max_examples=300)
    @given(one_vs_many())
    def test_intersect(self, backend, case):
        piece, many = case
        self.check(backend.iv_intersect, ref_intersect,
                   IntervalSet.from_interval(piece), many)

    @settings(max_examples=300)
    @given(one_vs_many())
    def test_subtract(self, backend, case):
        piece, many = case
        self.check(backend.iv_subtract, ref_subtract,
                   IntervalSet.from_interval(piece), many)

    @given(many_piece_sets().filter(lambda s: len(s) >= 2))
    def test_operand_reuse(self, backend, many):
        # A piece of the set is inside it, and the set covers that piece:
        # both results equal an operand and must be that operand.
        f = many.flat
        k = len(f) // 8 * 4  # the middle piece, copied into a new tuple
        piece = f[k:k + 2] + f[k + 2:k + 4]
        assert backend.iv_union(piece, f) is f
        assert backend.iv_union(f, piece) is f
        assert backend.iv_intersect(piece, f) is piece
        assert backend.iv_intersect(f, piece) is piece


@pytest.mark.skipif(c_kernels is None,
                    reason="compiled fast-core backend not built")
class TestCompiledMatchesPure:
    """Direct c-vs-pure agreement (no reference in the middle)."""

    @given(interval_sets(), interval_sets())
    def test_binary_ops(self, a, b):
        for name in ("iv_intersect", "iv_union", "iv_subtract"):
            got = getattr(c_kernels, name)(a.flat, b.flat)
            want = getattr(pure_kernels, name)(a.flat, b.flat)
            assert got == want, name

    @given(interval_sets(), timestamps())
    def test_contains(self, a, ts):
        assert (c_kernels.iv_contains(a.flat, ts.value, ts.pid)
                == pure_kernels.iv_contains(a.flat, ts.value, ts.pid))
