"""Self-healing replication: anti-entropy, recruitment, chaos hardening.

Covers the §5h machinery end to end at the cluster level (restarted
followers re-earn snapshot servability through bounded sync sessions, a
demoted leader's slot is re-filled by recruiting an outsider), the
refusal-reason breakdown of follower reads, the join-cutoff exemption of
``scan_lost_commits``, the no-RNG promotion/recruitment tie-breaks, and a
Hypothesis sweep of lossy links over the quorum mirror/commit fan-outs.
"""

import inspect
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamp import Timestamp
from repro.dist.cluster import (ClusterConfig, ReplicationConfig,
                                SelfHealConfig, run_cluster)
from repro.dist.failure import ChaosConfig
from repro.repl import replica as replica_mod
from repro.repl.placement import ReplicatedPlacement
from repro.repl.replica import FailoverController, scan_lost_commits
from repro.sim.network import LatencyModel, LinkFaults, Network
from repro.sim.simulator import Simulator
from repro.sim.testbed import LOCAL_TESTBED
from repro.verify import check_serializable
from repro.workload.generator import WorkloadConfig

_BASE = ClusterConfig(
    protocol="mvtil-early",
    profile=replace(LOCAL_TESTBED, gc_horizon=1.0),
    workload=WorkloadConfig(num_keys=500, tx_size=4, write_fraction=0.3),
    num_servers=4, num_clients=6, seed=7,
    warmup=1.0, measure=2.0, gc_period=0.15,
    write_lock_timeout=0.25, rpc_timeout=0.1, rpc_retries=3,
    replication=ReplicationConfig(follower_reads=True,
                                  self_heal=SelfHealConfig(sync_batch=8)),
    wal=True, record_history=True)


def _outcome(res):
    return (res.committed, res.aborted, res.messages_sent,
            res.chaos_report, res.replication_report)


class TestAntiEntropy:
    def test_restarted_follower_resyncs_and_is_servable_again(self):
        config = replace(_BASE,
                         chaos=ChaosConfig(follower_restarts=1,
                                           follower_downtime=0.3))
        runs = [run_cluster(config) for _ in range(2)]
        res = runs[0]
        rep = res.replication_report
        assert _outcome(runs[0]) == _outcome(runs[1])
        assert res.committed > 0
        # The restarted follower completed a full anti-entropy plan ...
        assert rep["resyncs"] >= 1
        assert rep["dirty_at_end"] == []
        assert all(lat > 0 for lat in rep["resync_latencies"])
        # ... and nothing was lost along the way.
        assert rep["commits_checked"] > 0
        assert rep["lost_commits"] == 0
        for r in runs:
            assert check_serializable(r.history).serializable

    def test_sync_installs_are_wal_logged(self):
        config = replace(_BASE,
                         chaos=ChaosConfig(follower_restarts=1,
                                           follower_downtime=0.3))
        rep = run_cluster(config).replication_report
        # A catch-up that installed versions must have logged them: a crash
        # after the resync cleared snapshot_dirty would otherwise recover a
        # state the servability proof no longer covers.
        if rep["sync_installs"]:
            assert rep["wal_sync_records"] > 0

    def test_refusal_reasons_partition_the_refusal_count(self):
        config = replace(_BASE,
                         chaos=ChaosConfig(follower_restarts=1,
                                           follower_downtime=0.3))
        rep = run_cluster(config).replication_report
        by_reason = rep["snapshot_refused_by_reason"]
        assert set(by_reason) == {"dirty", "floor", "unfrozen", "missing"}
        assert sum(by_reason.values()) == rep["snapshot_refused"]
        # Dirty refusals end with the sync: nobody is still dirty, so the
        # refusal breakdown is a closed chapter, not an ongoing outage.
        assert rep["dirty_at_end"] == []


class TestRecruitment:
    def test_leader_crash_recruits_a_replacement_member(self):
        config = replace(_BASE, replication=ReplicationConfig(
                             follower_reads=True, reliable_fanout=True,
                             heartbeat_miss_limit=5,
                             self_heal=SelfHealConfig(recruitment=True,
                                                      sync_batch=8)),
                         chaos=ChaosConfig(leader_crashes=1,
                                           leader_downtime=0.6))
        runs = [run_cluster(config) for _ in range(2)]
        res = runs[0]
        rep = res.replication_report
        assert _outcome(runs[0]) == _outcome(runs[1])
        assert len(rep["promotions"]) >= 1
        assert len(rep["recruitments"]) >= 1
        # The recruit is a genuine outsider joining the crashed leader's
        # group, and the flip bumped the fencing epoch.
        promoted_gids = {p[1] for p in rep["promotions"]}
        for _, gid, old, new, epoch in rep["recruitments"]:
            assert gid in promoted_gids
            assert old != new
            assert epoch >= 2
        # Pre-join commits must not be flagged lost on the recruit.
        assert rep["lost_commits"] == 0
        assert rep["replica_missing"] == 0
        assert rep["dirty_at_end"] == []


class _FakeStore:
    def __init__(self, present):
        self._present = set(present)

    def version_at(self, key, ts):
        return "v" if (key, ts) in self._present else None


def _srv(present, floor=None):
    return SimpleNamespace(store=_FakeStore(present), stable_floor=floor)


def _history(*recs):
    return SimpleNamespace(committed=lambda: list(recs))


def _commit(ts, *keys):
    return SimpleNamespace(commit_ts=Timestamp(ts, 1), writes=tuple(keys))


class TestScanJoinCutoff:
    """Satellite: ``scan_lost_commits`` exemptions pinned as regressions."""

    def _placement(self):
        # Group 0 of a 3-server ring: members (s0, s1, s2), leader s0.
        return ReplicatedPlacement(["s0", "s1", "s2"], replication=3)

    def _key_in_group0(self, placement):
        return next(k for k in range(100) if placement.group_of(k) == 0)

    def test_pre_join_commit_not_flagged_on_recruit(self):
        placement = ReplicatedPlacement(["s0", "s1", "s2", "s3"],
                                        replication=3)
        key = next(k for k in range(100) if placement.group_of(k) == 0)
        ts = Timestamp(1.0, 1)
        placement.replace_member(0, placement.members(0)[1], "s3", now=5.0)
        servers = {sid: _srv({(key, ts)}) for sid in placement.members(0)}
        servers["s3"] = _srv(())  # the recruit never saw the old commit
        report = scan_lost_commits(_history(_commit(1.0, key)), placement,
                                   servers)
        assert report["commits_checked"] == 1
        assert report["lost_commits"] == 0
        assert report["replica_missing"] == 0  # join cutoff exempts s3

    def test_post_join_gap_on_recruit_is_still_counted(self):
        placement = ReplicatedPlacement(["s0", "s1", "s2", "s3"],
                                        replication=3)
        key = next(k for k in range(100) if placement.group_of(k) == 0)
        ts = Timestamp(9.0, 1)  # after the join at t=5
        placement.replace_member(0, placement.members(0)[1], "s3", now=5.0)
        servers = {sid: _srv({(key, ts)}) for sid in placement.members(0)}
        servers["s3"] = _srv(())
        report = scan_lost_commits(_history(_commit(9.0, key)), placement,
                                   servers)
        assert report["lost_commits"] == 0
        assert report["replica_missing"] == 1

    def test_leader_check_has_no_join_exemption(self):
        # A recruit later promoted to leader is audited strictly: the
        # leader must hold every commit, pre-join or not.
        placement = ReplicatedPlacement(["s0", "s1", "s2", "s3"],
                                        replication=3)
        key = next(k for k in range(100) if placement.group_of(k) == 0)
        old_follower = placement.members(0)[1]
        placement.replace_member(0, old_follower, "s3", now=5.0)
        placement.promote(0, "s3")
        servers = {sid: _srv(()) for sid in placement.members(0)}
        report = scan_lost_commits(_history(_commit(1.0, key)), placement,
                                   servers)
        assert report["lost_commits"] == 1

    def test_stable_floor_exempts_purged_versions(self):
        placement = self._placement()
        key = self._key_in_group0(placement)
        servers = {sid: _srv((), floor=Timestamp(2.0, 0))
                   for sid in placement.members(0)}
        report = scan_lost_commits(_history(_commit(1.0, key)), placement,
                                   servers)
        assert report["commits_checked"] == 1
        assert report["lost_commits"] == 0
        assert report["replica_missing"] == 0

    def test_before_bound_skips_in_flight_commits(self):
        placement = self._placement()
        key = self._key_in_group0(placement)
        servers = {sid: _srv(()) for sid in placement.members(0)}
        report = scan_lost_commits(_history(_commit(9.0, key)), placement,
                                   servers, before=5.0)
        assert report["commits_checked"] == 0
        assert report["lost_commits"] == 0


class TestPromotionTieBreak:
    """Satellite: promotion/recruitment ranking is deterministic and
    draws no RNG — a pure function of the heartbeat history."""

    def _controller(self, placement):
        sim = Simulator()
        net = Network(sim, LatencyModel.from_mean(1e-4, cv=0.1),
                      np.random.default_rng(0))
        return FailoverController(sim, net, placement)

    def test_equal_rank_candidates_break_on_server_id(self):
        for insert_order in (("b", "c"), ("c", "b")):
            placement = ReplicatedPlacement(["a", "b", "c"], replication=3)
            ctrl = self._controller(placement)
            for sid in insert_order:
                ctrl._state[sid] = (5, False)  # same applied, same clean
                ctrl._misses[sid] = 0
            ctrl._promote(0, "a")
            assert placement.leader(0) == "b"  # min(str(sid)) wins the draw

    def test_clean_beats_fresh_but_dirty(self):
        placement = ReplicatedPlacement(["a", "b", "c"], replication=3)
        ctrl = self._controller(placement)
        ctrl._state["b"] = (99, True)   # freshest but restarted (dirty)
        ctrl._state["c"] = (5, False)   # clean
        ctrl._misses["b"] = ctrl._misses["c"] = 0
        ctrl._promote(0, "a")
        assert placement.leader(0) == "c"

    def test_controller_owns_no_rng(self):
        placement = ReplicatedPlacement(["a", "b", "c"], replication=3)
        ctrl = self._controller(placement)
        assert not any("rng" in name.lower() for name in vars(ctrl))
        src = inspect.getsource(replica_mod)
        assert "default_rng" not in src
        assert "np.random" not in src


class TestLossyLinkConvergence:
    """Satellite: seeded lossy links over the quorum mirror/commit
    fan-outs always converge — no lost commits, serializable history."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16),
           loss=st.floats(0.0, 0.08),
           dup=st.floats(0.0, 0.05))
    def test_no_lost_commits_under_lossy_links(self, seed, loss, dup):
        config = replace(
            _BASE,
            workload=WorkloadConfig(num_keys=300, tx_size=3,
                                    write_fraction=0.4),
            num_clients=4, seed=seed, warmup=0.6, measure=1.0,
            replication=replace(_BASE.replication, reliable_fanout=True),
            faults=LinkFaults(loss=loss, duplicate=dup, delay_spike=0.01))
        res = run_cluster(config)
        rep = res.replication_report
        assert res.committed > 0
        assert rep["commits_checked"] > 0
        assert rep["lost_commits"] == 0
        assert rep["dirty_at_end"] == []
        assert check_serializable(res.history).serializable
