"""Experiment grids: ordered (config x seed) cells with stable keys.

A :class:`Cell` pairs one :class:`~repro.dist.cluster.ClusterConfig` with a
stable, sortable grid key.  The key — not completion order — defines the
merge order of a parallel sweep, which is what makes ``--workers N``
byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..dist.cluster import ClusterConfig, ReplicationConfig, SelfHealConfig
from ..sim.testbed import LOCAL_TESTBED
from ..workload.generator import WorkloadConfig

__all__ = ["Cell", "derive_seeds", "failover_grid", "figure_grid",
           "policy_grid", "reference_cell", "scenario_grid",
           "selfheal_grid"]


@dataclass(frozen=True)
class Cell:
    """One grid cell: a stable key plus the config to run.

    ``key`` must be unique within a grid and orderable (tuples of
    str/int/float); it names the cell in merged results and BENCH output.

    ``run`` (``None`` = :func:`~repro.dist.cluster.run_cluster`) executes
    the cell; ``reduce``, when set, maps the raw result to the value
    shipped back from the worker.  Both must be top-level callables so the
    cell pickles under the spawn start method.  Cells whose raw result is
    not picklable (e.g. scenario runs, whose histories hold locks) **must**
    set ``reduce`` to a picklable summary — the harness fails the cell
    loudly otherwise instead of silently degrading to inline execution.
    """

    key: tuple
    #: Usually a ClusterConfig; cells with a custom ``run`` may carry any
    #: picklable config object their runner understands.
    config: Any
    run: Callable[[Any], Any] | None = None
    reduce: Callable[[Any], Any] | None = None

    @property
    def label(self) -> str:
        return "/".join(str(part) for part in self.key)


def derive_seeds(root_seed: int, n: int) -> list[int]:
    """``n`` deterministic per-cell seeds derived from ``root_seed``.

    Uses the same ``SeedSequence`` spawning discipline as
    :class:`~repro.sim.rng.RngFactory` (children are deterministic in spawn
    order), so grids built from one root seed are reproducible regardless
    of worker count or scheduling.
    """
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [int(child.generate_state(1, np.uint32)[0]) for child in children]


def _check_unique(cells: Sequence[Cell]) -> None:
    seen: set[tuple] = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate grid key {cell.key!r}")
        seen.add(cell.key)


def figure_grid(protocols: Sequence[str] = ("mvto", "2pl", "mvtil-early",
                                            "mvtil-late"),
                clients: Sequence[int] = (30, 150),
                seeds: Sequence[int] = (1, 2),
                measure: float = 1.5) -> list[Cell]:
    """The reference benchmark grid: a quick Figure-1-style sweep.

    Protocol x concurrency x seed on the local testbed — the same axes as
    the paper's Figure 1, sized so the quick grid finishes in minutes.
    Cells are emitted in key order.
    """
    base = ClusterConfig(
        profile=LOCAL_TESTBED,
        workload=WorkloadConfig(num_keys=10_000, tx_size=20,
                                write_fraction=0.25),
        warmup=0.5, measure=measure)
    cells = [
        Cell(key=(proto, int(nc), int(seed)),
             config=replace(base, protocol=proto, num_clients=int(nc),
                            seed=int(seed)))
        for proto in protocols
        for nc in clients
        for seed in seeds
    ]
    _check_unique(cells)
    return cells


def failover_grid(seed: int = 1, measure: float = 2.5) -> list[Cell]:
    """The replication/failover grid behind the BENCH_6 record (repro.repl).

    Three cells over one seed and an identical workload: an unreplicated
    baseline (the replication overhead reference), a steady replicated
    cluster (r=3, WAL durability, follower reads), and the same replicated
    cluster with a leader crash injected mid-measurement.  Comparing the
    cells yields the replication overhead and the failover goodput dip;
    the failover cell's replication report carries the promotion latency
    and the zero-lost-commits audit.
    """
    from ..dist.failure import ChaosConfig
    base = ClusterConfig(
        protocol="mvtil-early",
        profile=replace(LOCAL_TESTBED, gc_horizon=1.0),
        workload=WorkloadConfig(num_keys=2_000, tx_size=4,
                                write_fraction=0.3),
        num_servers=3, num_clients=10, seed=int(seed),
        warmup=1.5, measure=measure, gc_period=0.2,
        write_lock_timeout=0.25, rpc_timeout=0.15)
    repl = replace(base, replication=ReplicationConfig(follower_reads=True),
                   wal=True, record_history=True)
    cells = [
        Cell(key=("baseline", 1, int(seed)), config=base),
        Cell(key=("repl-steady", 3, int(seed)), config=repl),
        Cell(key=("repl-failover", 3, int(seed)),
             config=replace(repl, chaos=ChaosConfig(leader_crashes=1,
                                                    leader_downtime=0.6))),
    ]
    _check_unique(cells)
    return cells


def selfheal_grid(seed: int = 1, measure: float = 3.5) -> list[Cell]:
    """The self-healing replication grid behind the BENCH_9 record.

    Three cells, all replication factor 3 with WAL durability,
    anti-entropy sync, replica recruitment, reliable commit fan-out and
    lossy links, under compound chaos (one leader crash plus one follower
    restart mid-measurement):

    * ``selfheal`` — the reference self-healing cell (the bench
      ``python -m repro.bench selfheal`` runs the same shape): its
      replication report carries the resync latencies, recruitment log,
      refusal-reason breakdown and the zero-lost-commits audit;
    * ``scenario-chaos/bank-transfer`` — balance conservation must hold
      across the crashes and the membership change;
    * ``scenario-chaos/scan-vs-oltp`` — snapshot scans keep their
      monotonic-counter invariant while followers drop out of and re-earn
      servability.

    Cells carry full ClusterResults (histories + reports for the audits),
    which do not pickle — the ``--selfheal`` driver runs them in-process.
    """
    from ..dist.failure import ChaosConfig
    from ..sim.network import LinkFaults
    from ..workload.scenarios import scenario_config
    faults = LinkFaults(loss=0.03, duplicate=0.02, delay_spike=0.01)
    chaos = ChaosConfig(leader_crashes=1, leader_downtime=0.6,
                        follower_restarts=1, follower_downtime=0.3)
    healed = ReplicationConfig(
        reliable_fanout=True, heartbeat_miss_limit=5,
        self_heal=SelfHealConfig(recruitment=True, sync_batch=1))
    reads = replace(healed, follower_reads=True)
    healing = dict(num_servers=4, wal=True, write_lock_timeout=0.25,
                   rpc_timeout=0.15, rpc_retries=3, faults=faults,
                   chaos=chaos)
    main = ClusterConfig(
        protocol="mvtil-early",
        profile=replace(LOCAL_TESTBED, gc_horizon=1.0),
        workload=WorkloadConfig(num_keys=2_000, tx_size=4,
                                write_fraction=0.3),
        num_clients=10, seed=int(seed),
        warmup=1.5, measure=measure, gc_period=0.2,
        replication=reads, record_history=True, **healing)
    cells = [
        Cell(key=("selfheal", 3, int(seed)), config=main),
        Cell(key=("scenario-chaos", "bank-transfer", int(seed)),
             config=scenario_config("bank-transfer", seed=int(seed),
                                    warmup=0.5, measure=2.5,
                                    replication=healed, **healing)),
        Cell(key=("scenario-chaos", "scan-vs-oltp", int(seed)),
             config=scenario_config("scan-vs-oltp", seed=int(seed),
                                    measure=2.5, replication=reads,
                                    **healing)),
    ]
    _check_unique(cells)
    return cells


def scenario_grid(seed: int = 1) -> list[Cell]:
    """The workload-zoo grid behind the BENCH_7 record.

    One cell per registered scenario, all at the same seed, each running
    its reference cluster config (``scenario_config``): the bench record
    pins every scenario's committed/aborted counts, generated mix and
    invariant status as one reproducible point.

    Scenario results hold full histories (locks — not picklable), so the
    cells reduce to :class:`~repro.workload.scenarios.ScenarioCellSummary`
    in the worker: invariants and theorem duels run per-cell, which also
    parallelizes them under ``--workers N``.
    """
    from ..workload.scenarios import (SCENARIOS, reduce_scenario_cell,
                                      scenario_config)
    cells = [Cell(key=("scenario", name, int(seed)),
                  config=scenario_config(name, seed=int(seed)),
                  reduce=reduce_scenario_cell)
             for name in SCENARIOS]
    _check_unique(cells)
    return cells


def policy_grid(seed: int = 1) -> list[Cell]:
    """The policy-arena grid behind the BENCH_8 record.

    Two cell families:

    * ``("arena", scenario, policy, seed)`` — every scenario's stream under
      the adaptive selector, each of its fixed constituents and the Bohm
      baseline, on the centralized-engine arena (``run_policy_cell``; the
      config is a :class:`~repro.workload.scenarios.PolicyCellConfig`, not
      a ClusterConfig).
    * ``("bohm-chaos", scenario, seed)`` — the Bohm *cluster* under link
      faults, reduced in-worker to MVSG + invariant verdicts.
    """
    from ..workload.scenarios import (ARENA_POLICIES, BOHM_CHAOS_SCENARIOS,
                                      PolicyCellConfig, bohm_chaos_config,
                                      reduce_bohm_chaos_cell,
                                      run_policy_cell, scenario_names)
    cells = [Cell(key=("arena", scenario, policy, int(seed)),
                  config=PolicyCellConfig(scenario, policy, seed=int(seed)),
                  run=run_policy_cell)
             for scenario in scenario_names()
             for policy in ARENA_POLICIES]
    cells += [Cell(key=("bohm-chaos", scenario, int(seed)),
                   config=bohm_chaos_config(scenario, seed=int(seed)),
                   reduce=reduce_bohm_chaos_cell)
              for scenario in BOHM_CHAOS_SCENARIOS]
    _check_unique(cells)
    return cells


def reference_cell(seed: int = 42) -> Cell:
    """The fixed single-process hot-path reference: one medium MVTIL run.

    Used by ``python -m repro.exp`` to measure sim-events/s for the perf
    trajectory; the event count is deterministic for a given seed, so
    events/s across PRs compares like for like.
    """
    return Cell(
        key=("hotpath", "mvtil-early", seed),
        config=ClusterConfig(
            protocol="mvtil-early", num_servers=4, num_clients=12,
            seed=seed, warmup=2.0, measure=8.0,
            profile=LOCAL_TESTBED,
            workload=WorkloadConfig(num_keys=10_000, tx_size=20,
                                    write_fraction=0.25)))
