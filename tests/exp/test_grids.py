"""The committed BENCH grids build, and carry the intended sub-configs.

Building a grid constructs (and so validates) every cell's ClusterConfig
without running anything, so a stale field name or an invalid combination
in a grid fails here rather than only in a bench run.
"""

from dataclasses import replace

from repro.dist.cluster import (AdmissionConfig, ClusterConfig,
                                ReplicationConfig, SelfHealConfig)
from repro.exp.grid import (failover_grid, figure_grid, policy_grid,
                            reference_cell, scenario_grid, selfheal_grid)
from repro.workload.scenarios import (ARENA_POLICIES, BOHM_CHAOS_SCENARIOS,
                                      SCENARIOS, PolicyCellConfig,
                                      scenario_names)


def _by_key(cells):
    return {cell.key: cell.config for cell in cells}


def test_failover_grid():
    cells = _by_key(failover_grid(seed=1))
    base = cells[("baseline", 1, 1)]
    steady = cells[("repl-steady", 3, 1)]
    failover = cells[("repl-failover", 3, 1)]
    assert base.replication is None and not base.wal
    for config in (steady, failover):
        assert config.replication == ReplicationConfig(follower_reads=True)
        assert config.wal and config.record_history
    assert steady.chaos is None
    assert failover.chaos.leader_crashes == 1


def test_selfheal_grid():
    cells = _by_key(selfheal_grid(seed=1))
    healed = ReplicationConfig(
        reliable_fanout=True, heartbeat_miss_limit=5,
        self_heal=SelfHealConfig(recruitment=True, sync_batch=1))
    follower_reads = {
        ("selfheal", 3, 1): True,
        ("scenario-chaos", "bank-transfer", 1): False,
        ("scenario-chaos", "scan-vs-oltp", 1): True,
    }
    assert set(cells) == set(follower_reads)
    for key, config in cells.items():
        assert config.replication == replace(
            healed, follower_reads=follower_reads[key])
        assert config.wal
        # One server outside the group is the recruitment stock.
        assert config.server_count == 4
        assert config.faults is not None
        assert config.chaos.leader_crashes == 1
        assert config.chaos.follower_restarts == 1


def test_scenario_grid():
    cells = _by_key(scenario_grid(seed=1))
    assert set(cells) == {("scenario", name, 1) for name in SCENARIOS}
    for (_, name, _), config in cells.items():
        assert config.scenario == name
        replicated = name == "scan-vs-oltp"
        assert (config.replication
                == (ReplicationConfig(follower_reads=True)
                    if replicated else None))
        assert (config.admission
                == (AdmissionConfig(threshold=8, cooldown=0.1)
                    if name == "flash-crowd" else None))
        assert not config.wal


def test_policy_grid():
    cells = policy_grid(seed=1)
    arena = [c for c in cells if c.key[0] == "arena"]
    bohm = [c for c in cells if c.key[0] == "bohm-chaos"]
    assert len(arena) == len(scenario_names()) * len(ARENA_POLICIES)
    assert all(isinstance(c.config, PolicyCellConfig) for c in arena)
    assert [c.key[1] for c in bohm] == list(BOHM_CHAOS_SCENARIOS)
    for cell in bohm:
        config = cell.config
        assert config.protocol == "bohm"
        assert config.server_count == 1
        assert config.faults is not None
        assert config.replication is None and not config.wal


def test_figure_grid_and_reference_cell_are_unreplicated():
    configs = [c.config for c in figure_grid()] + [reference_cell().config]
    for config in configs:
        assert isinstance(config, ClusterConfig)
        assert config.replication is None
        assert config.admission is None
        assert not config.wal
