"""Rule-based stateful testing of the freezable lock table.

Hypothesis drives arbitrary acquire/freeze/release/seal/purge sequences
against a :class:`KeyLockState` and checks the safety invariants after
every step:

* no two owners hold conflicting locks at any timestamp;
* frozen is always a subset of held;
* sealed write ranges never overlap any live owner's grants made after
  sealing;
* released ranges really become grantable;
* the cached sealed-blocker set (the union a WRITE probe checks sealed
  state against) is unbuilt or equals ``sealed_write ∪ sealed_read``, and
  a WRITE probe reports what a state without the cache would.
"""

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.intervals import IntervalSet, TsInterval
from repro.core.locks import FrozenConflictError, KeyLockState, LockMode
from repro.core.timestamp import Timestamp

OWNERS = ["t1", "t2", "t3"]


def T(v, p=0):
    return Timestamp(float(v), p)


def R(lo, hi):
    return TsInterval.closed(T(lo), T(hi))


def commit(state, owner, mode, span):
    """Acquire, freeze and seal ``span`` in ``mode`` for ``owner``."""
    state.try_acquire(owner, mode, span)
    state.freeze(owner, mode, span)
    state.seal(owner)


small_intervals = st.builds(
    lambda a, w: TsInterval.closed(T(a), T(a + w)),
    st.integers(0, 30), st.integers(0, 6))


class LockTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = KeyLockState()

    @rule(owner=st.sampled_from(OWNERS),
          mode=st.sampled_from([LockMode.READ, LockMode.WRITE]),
          want=small_intervals)
    def acquire(self, owner, mode, want):
        self.state.try_acquire(owner, mode, want)

    @rule(owner=st.sampled_from(OWNERS),
          mode=st.sampled_from([LockMode.READ, LockMode.WRITE]),
          span=small_intervals)
    def freeze(self, owner, mode, span):
        self.state.freeze(owner, mode, span)

    @rule(owner=st.sampled_from(OWNERS),
          mode=st.sampled_from([LockMode.READ, LockMode.WRITE]),
          span=small_intervals)
    def release(self, owner, mode, span):
        try:
            self.state.release(owner, mode, span)
        except FrozenConflictError:
            pass  # legal refusal: the span touched frozen state

    @rule(owner=st.sampled_from(OWNERS))
    def release_unfrozen(self, owner):
        self.state.release_unfrozen(owner)

    @rule(owner=st.sampled_from(OWNERS), keep=st.booleans())
    def seal(self, owner, keep):
        self.state.seal(owner, keep_all_reads=keep)

    @rule(owner=st.sampled_from(OWNERS),
          mode=st.sampled_from([LockMode.READ, LockMode.WRITE]),
          span=small_intervals)
    def commit_span(self, owner, mode, span):
        # One step: grows the sealed aggregates far more often than the
        # separate acquire/freeze/seal rules line up.
        commit(self.state, owner, mode, span)

    @rule(bound=st.integers(0, 30))
    def purge(self, bound):
        self.state.purge_below(TsInterval.closed(T(0), T(bound)))

    @rule(owner=st.sampled_from(OWNERS), want=small_intervals)
    def write_probe_matches_rebuilt(self, owner, want):
        # A copy with the cache dropped rebuilds the union from the two
        # aggregates; both must split the request identically.
        got = self.state.lockable(owner, LockMode.WRITE, want)
        rebuilt = copy.copy(self.state)
        rebuilt._sealed_blockers = None
        assert rebuilt.lockable(owner, LockMode.WRITE, want) == got

    # -- invariants --------------------------------------------------------

    @invariant()
    def no_conflicting_grants(self):
        owners = list(self.state.owners())
        for i, a in enumerate(owners):
            aw = self.state.held(a, LockMode.WRITE)
            ar = self.state.held(a, LockMode.READ)
            # vs other live owners
            for b in owners[i + 1:]:
                bw = self.state.held(b, LockMode.WRITE)
                br = self.state.held(b, LockMode.READ)
                assert aw.intersect(bw).is_empty
                assert aw.intersect(br).is_empty
                assert bw.intersect(ar).is_empty
            # vs sealed state
            assert aw.intersect(self.state.sealed_read_ranges()).is_empty
            assert aw.intersect(self.state.sealed_write_ranges()).is_empty
            assert ar.intersect(self.state.sealed_write_ranges()).is_empty

    @invariant()
    def frozen_subset_of_held(self):
        for owner in self.state.owners():
            for mode in LockMode:
                frozen = self.state.frozen(owner, mode)
                held = self.state.held(owner, mode)
                assert frozen.subtract(held).is_empty

    @invariant()
    def record_count_nonnegative(self):
        assert self.state.record_count() >= 0

    @invariant()
    def sealed_blocker_cache_current(self):
        cached = self.state._sealed_blockers
        assert cached is None or cached == (
            self.state.sealed_write_ranges().union(
                self.state.sealed_read_ranges()))


LockTableMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None)
TestLockTableStateful = LockTableMachine.TestCase


class TestSealedBlockerCache:
    """A WRITE probe after a purge that empties one sealed aggregate must
    report what a freshly built state holding the survivors reports."""

    PROBE = R(0, 40)

    def probe(self, state):
        return state.lockable("t9", LockMode.WRITE, self.PROBE)

    def test_purge_empties_sealed_write(self):
        state = KeyLockState()
        commit(state, "t1", LockMode.WRITE, R(5, 5))
        commit(state, "t2", LockMode.READ, R(10, 20))
        self.probe(state)
        assert state._sealed_blockers is None  # small: re-merged per probe
        commit(state, "t3", LockMode.WRITE, R(1, 1))
        commit(state, "t4", LockMode.WRITE, R(3, 3))
        self.probe(state)  # a 4-piece union: now cached
        assert state._sealed_blockers is not None
        state.purge_below(R(0, 6))
        assert state.sealed_write_ranges().is_empty

        fresh = KeyLockState()
        commit(fresh, "t2", LockMode.READ, R(10, 20))
        got = self.probe(state)
        assert got == self.probe(fresh)
        assert [(c.interval, c.mode) for c in got.conflicts] == [
            (R(10, 20), LockMode.READ)]

    def test_purge_empties_sealed_read_then_seal(self):
        state = KeyLockState()
        commit(state, "t1", LockMode.READ, R(2, 4))
        commit(state, "t2", LockMode.READ, R(6, 8))
        commit(state, "t3", LockMode.WRITE, R(30, 30))
        commit(state, "t4", LockMode.WRITE, R(32, 32))
        self.probe(state)
        assert state._sealed_blockers is not None
        state.purge_below(R(0, 10))
        assert state.sealed_read_ranges().is_empty
        # Sealing into the surviving cache after the purge keeps it exact.
        commit(state, "t5", LockMode.READ, R(12, 14))
        commit(state, "t6", LockMode.WRITE, R(35, 35))

        fresh = KeyLockState()
        commit(fresh, "t3", LockMode.WRITE, R(30, 30))
        commit(fresh, "t4", LockMode.WRITE, R(32, 32))
        commit(fresh, "t5", LockMode.READ, R(12, 14))
        commit(fresh, "t6", LockMode.WRITE, R(35, 35))
        assert self.probe(state) == self.probe(fresh)
        assert state._sealed_blockers == IntervalSet(
            [R(12, 14), R(30, 30), R(32, 32), R(35, 35)])
