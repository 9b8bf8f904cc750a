"""ClusterConfig construction: every rejection rule, and the sub-configs.

Invalid combinations the field shape can still express are rejected when
the config is built, never later inside ``run_cluster`` (where a grid cell
would only fail inside a harness worker).  The table below holds one or
more rows per rule left in ``ClusterConfig.__post_init__``, and a
source-level count keeps it complete when a rule is added.
"""

import inspect

import pytest

from repro.dist.cluster import (AdmissionConfig, ClusterConfig,
                                ReplicationConfig, SelfHealConfig)
from repro.dist.failure import ChaosConfig
from repro.sim.network import LinkFaults
from repro.sim.testbed import LOCAL_TESTBED

REPL = ReplicationConfig()

#: (rule, build, message regex); several rows may exercise one rule.
REJECTIONS = [
    ("protocol", lambda: ClusterConfig(protocol="3pl"),
     r"unknown protocol '3pl'"),
    ("queue_capacity", lambda: ClusterConfig(queue_capacity=0),
     r"queue_capacity must be >= 1"),
    ("tx_budget", lambda: ClusterConfig(tx_budget=0.0),
     r"tx_budget must be positive"),
    ("commitment", lambda: ClusterConfig(commitment="2pc"),
     r"unknown commitment backend '2pc'"),
    ("2pl-faults",
     lambda: ClusterConfig(protocol="2pl", faults=LinkFaults(loss=0.1)),
     r"fault injection requires a recovery protocol; 2pl"),
    ("2pl-faults",
     lambda: ClusterConfig(protocol="2pl",
                           chaos=ChaosConfig(client_crashes=1)),
     r"fault injection requires a recovery protocol; 2pl"),
    ("bohm-chaos",
     lambda: ClusterConfig(protocol="bohm",
                           chaos=ChaosConfig(client_crashes=1)),
     r"crash chaos requires a recovery protocol; the bohm sequencer"),
    ("bohm-commitment",
     lambda: ClusterConfig(protocol="bohm", commitment="paxos"),
     r"bohm has no commitment objects"),
    ("wal-protocol", lambda: ClusterConfig(protocol="2pl", wal=True),
     r"wal requires the MVTL commit machinery; 2pl"),
    ("wal-protocol", lambda: ClusterConfig(protocol="bohm", wal=True),
     r"wal requires the MVTL commit machinery; bohm"),
    ("paxos-restarts",
     lambda: ClusterConfig(commitment="paxos",
                           chaos=ChaosConfig(server_restarts=1)),
     r"server restarts are not supported with the paxos"),
    ("replication-protocol",
     lambda: ClusterConfig(protocol="mvto", replication=REPL),
     r"replication requires an MVTIL protocol"),
    ("replication-protocol",
     lambda: ClusterConfig(protocol="bohm", replication=REPL),
     r"replication requires an MVTIL protocol"),
    ("replication-batching",
     lambda: ClusterConfig(replication=REPL, batching=False),
     r"replication requires batching"),
    ("replication-commitment",
     lambda: ClusterConfig(replication=REPL, commitment="paxos"),
     r"replication requires the local commitment backend"),
    ("replication-servers",
     lambda: ClusterConfig(replication=REPL, num_servers=2),
     r"replication needs at least 3 servers \(have 2\)"),
    ("replication-servers",
     lambda: ClusterConfig(replication=REPL,
                           profile=LOCAL_TESTBED.with_servers(2)),
     r"replication needs at least 3 servers \(have 2\)"),
    ("replica-chaos",
     lambda: ClusterConfig(chaos=ChaosConfig(leader_crashes=1)),
     r"chaos.leader_crashes and chaos.follower_restarts require "
     r"replication"),
    ("replica-chaos",
     lambda: ClusterConfig(chaos=ChaosConfig(follower_restarts=1)),
     r"chaos.leader_crashes and chaos.follower_restarts require "
     r"replication"),
    ("scenario", lambda: ClusterConfig(scenario="no-such-scenario"),
     r"unknown scenario 'no-such-scenario'"),
]

#: Range rules of the sub-configs themselves.
SUB_CONFIG_REJECTIONS = [
    (lambda: ReplicationConfig(heartbeat_miss_limit=0),
     r"heartbeat_miss_limit must be >= 1"),
    (lambda: SelfHealConfig(sync_batch=0), r"sync_batch must be >= 1"),
]


@pytest.mark.parametrize(
    "rule, build, match", REJECTIONS,
    ids=[f"{rule}-{i}" for i, (rule, _, _) in enumerate(REJECTIONS)])
def test_invalid_config_is_rejected_at_construction(rule, build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("build, match", SUB_CONFIG_REJECTIONS)
def test_invalid_sub_config_is_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_table_covers_every_rule():
    source = inspect.getsource(ClusterConfig.__post_init__)
    assert source.count("raise ValueError") == len(
        {rule for rule, _, _ in REJECTIONS})


@pytest.mark.parametrize("build", [
    # Link faults are fine on bohm (dedup + retries absorb them).
    lambda: ClusterConfig(protocol="bohm", faults=LinkFaults(loss=0.1)),
    # The profile default (3 servers) is enough for a replicated group.
    lambda: ClusterConfig(replication=REPL, wal=True),
    lambda: ClusterConfig(
        num_servers=4,
        replication=ReplicationConfig(
            follower_reads=True, reliable_fanout=True,
            self_heal=SelfHealConfig(recruitment=True)),
        chaos=ChaosConfig(leader_crashes=1, follower_restarts=1)),
    lambda: ClusterConfig(protocol="mvto", wal=True,
                          admission=AdmissionConfig(threshold=4)),
])
def test_valid_combinations_build(build):
    build()


def test_server_count():
    assert ClusterConfig().server_count == LOCAL_TESTBED.num_servers
    assert ClusterConfig(num_servers=5).server_count == 5
    assert ClusterConfig(protocol="bohm", num_servers=5).server_count == 1
