"""Span tracing of one cluster run, wrapped from outside the program.

:class:`LayerTrace` patches the public entry points of each layer of
``repro`` for the duration of a ``with`` block and records one span per
call (or per generator resume) into flat in-memory arrays: name, start,
end and the span that was open when it began.  Nothing under ``src/`` is
changed; the patches are undone when the block exits.

Two facts about the program decide where the patches go:

* the interval and version-chain kernels are bound into the
  ``repro.core.intervals``, ``repro.core.versions`` and
  ``repro.core.locks`` module globals at import, so those globals are
  patched (patching ``repro._fastcore`` would catch nothing);
* ``ServiceQueue.submit`` and ``MVTLServer._service_time`` are captured as
  bound methods when a server is built, so the patches must be in place
  before ``run_cluster`` builds the servers.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.core.intervals as intervals_mod
import repro.core.locks as locks_mod
import repro.core.versions as versions_mod
import repro.dist.cluster as cluster_mod
from repro.core.locks import KeyLockState
from repro.core.versions import VersionStore
from repro.dist.client import MVTILClient, MVTOClient
from repro.dist.gc_service import TimestampService
from repro.dist.server import MVTLServer
from repro.sim.network import Network
from repro.sim.server_queue import ServiceQueue
from repro.sim.simulator import Simulator
from repro.workload.generator import WorkloadGenerator

#: Span-name prefix -> layer (the module that owns the code).
LAYERS = {
    "simulator": "sim.simulator",
    "network": "sim.network",
    "queue": "sim.server_queue",
    "server": "dist.server",
    "client": "dist.client",
    "runner": "workload.runner",
    "locks": "core.locks",
    "kernel": "fastcore.kernels",  # reached through core.intervals/versions
    "versions": "core.versions",
    "workload": "workload.generator",
    "gc": "dist.gc_service",
}

KERNELS = ("iv_union", "iv_intersect", "iv_subtract", "iv_contains",
           "iv_normalize", "vc_floor")
LOCK_FNS = ("try_acquire", "lockable", "grant", "freeze", "release", "seal",
            "purge_below", "frozen_write_ranges")
VERSION_FNS = ("latest_before", "install", "purge_before")
CLIENT_OPS = ("begin", "read", "write", "commit")

_KERNEL_MODULES = (intervals_mod, versions_mod, locks_mod)


def _pieces(name: str, args: tuple) -> tuple[float, int]:
    """(interval pieces summed over the inputs, number of inputs)."""
    if name in ("iv_union", "iv_intersect", "iv_subtract"):
        return (len(args[0]) + len(args[1])) / 4, 2
    if name == "iv_contains":
        return len(args[0]) / 4, 1
    # iv_normalize takes a list of quads; vc_floor a version chain.
    return len(args[0]), 1


class LayerTrace:
    """Record spans and counters of one run while the ``with`` block is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.servers: list[MVTLServer] = []
        self.clients: list[Any] = []
        self.queue_waits: list[float] = []
        self._submitted: dict[int, float] = {}
        self.counts = {"partial_grants": 0, "lock_probes": 0,
                       "gc_rounds": 0, "records_purged": 0,
                       "versions_purged": 0}
        self.pieces = {k: [0.0, 0] for k in KERNELS}

    # -- span recording ----------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _timed(self, name: str, fn: Callable,
               after: Callable[[Any], None] | None = None) -> Callable:
        nid = self._id(name)
        start, end, names, parents = (self.start, self.end, self.name,
                                      self.parent)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _resumes(self, name: str, genfn: Callable) -> Callable:
        """Wrap a generator function; one span per resume of its body.

        The wrapper delegates exactly as ``yield from`` would, so the
        simulation sees the same effects in the same order.
        """
        nid = self._id(name)
        start, end, names, parents = (self.start, self.end, self.name,
                                      self.parent)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            gen = genfn(*args, **kwargs)
            value = None
            exc = None
            while True:
                idx = len(start)
                parents.append(stack[-1] if stack else -1)
                names.append(nid)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    effect = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end[idx] = clock()
                    stack.pop()
                try:
                    value = yield effect
                    exc = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:  # forwarded like yield from
                    value, exc = None, thrown
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, owner: Any, attr: str, name: str,
              after: Callable[[Any], None] | None = None) -> None:
        self._patch(owner, attr, self._timed(name, getattr(owner, attr),
                                             after))

    def __enter__(self) -> "LayerTrace":
        counts = self.counts
        self._wrap(Simulator, "run_until", "simulator.run_until")
        self._wrap(Network, "send", "network.send")
        self._wrap(Network, "_deliver", "network.deliver")
        self._patch_queue()
        self._patch_server()
        self._patch_clients()

        def probed(result) -> None:
            counts["lock_probes"] += 1
            if result.conflicts and not result.acquired.is_empty:
                counts["partial_grants"] += 1

        def purged_locks(n: int) -> None:
            counts["records_purged"] += n

        def purged_versions(n: int) -> None:
            counts["versions_purged"] += n

        for fn in LOCK_FNS:
            after = {"try_acquire": probed, "lockable": probed,
                     "purge_below": purged_locks}.get(fn)
            self._wrap(KeyLockState, fn, f"locks.{fn}", after)
        for fn in VERSION_FNS:
            self._wrap(VersionStore, fn, f"versions.{fn}",
                       purged_versions if fn == "purge_before" else None)
        self._wrap(WorkloadGenerator, "next_tx", "workload.next_tx")
        self._patch_kernels()
        self._patch_gc()
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_queue(self) -> None:
        submitted = self._submitted
        waits = self.queue_waits
        submit = self._timed("queue.submit", ServiceQueue.submit)

        def timed_submit(queue, request):
            submitted[id(request)] = queue.sim.now
            return submit(queue, request)

        self._patch(ServiceQueue, "submit", timed_submit)
        self._wrap(ServiceQueue, "_complete", "queue.complete")
        service_time = MVTLServer._service_time

        # Called exactly once per request, when it takes a service slot.
        def dispatched(server, msg=None):
            t = submitted.pop(id(msg), None)
            if t is not None:
                waits.append(server.sim.now - t)
            return service_time(server, msg)

        self._patch(MVTLServer, "_service_time", dispatched)

    def _patch_server(self) -> None:
        servers = self.servers
        init = MVTLServer.__init__
        handle = MVTLServer._handle
        per_class: dict[type, Callable] = {}

        def built(server, *args, **kwargs):
            init(server, *args, **kwargs)
            servers.append(server)

        def by_class(server, msg):
            cls = msg.__class__
            fn = per_class.get(cls)
            if fn is None:
                fn = per_class[cls] = self._timed(f"server.{cls.__name__}",
                                                  handle)
            return fn(server, msg)

        self._patch(MVTLServer, "__init__", built)
        self._patch(MVTLServer, "_handle", by_class)

    def _patch_clients(self) -> None:
        for cls in (MVTOClient, MVTILClient):
            self._wrap(cls, "begin", "client.begin")
            for op in ("read", "write", "commit"):
                self._patch(cls, op, self._resumes(f"client.{op}",
                                                   getattr(cls, op)))
        clients = self.clients
        runner = self._resumes("runner.closed_loop",
                               cluster_mod.closed_loop_client)

        def closed_loop(client, *args, **kwargs):
            clients.append(client)
            return runner(client, *args, **kwargs)

        self._patch(cluster_mod, "closed_loop_client", closed_loop)

    def _patch_kernels(self) -> None:
        for kname in KERNELS:
            acc = self.pieces[kname]

            def count(args, kname=kname, acc=acc):
                pieces, inputs = _pieces(kname, args)
                acc[0] += pieces
                acc[1] += inputs

            for mod in _KERNEL_MODULES:
                if kname in mod.__dict__:
                    timed = self._timed(f"kernel.{kname}", mod.__dict__[kname])

                    def kernel(*args, timed=timed, count=count):
                        count(args)
                        return timed(*args)

                    self._patch(mod, kname, kernel)

    def _patch_gc(self) -> None:
        counts = self.counts
        tick = self._timed("gc.tick", TimestampService._tick)

        def counted_tick(service):
            before = service.broadcasts
            tick(service)
            counts["gc_rounds"] += service.broadcasts - before

        self._patch(TimestampService, "_tick", counted_tick)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: (self seconds, number of spans)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        n = len(self.names)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        calls = np.bincount(name, minlength=n)
        return ({k: float(self_s[i]) for i, k in enumerate(self.names)},
                {k: int(calls[i]) for i, k in enumerate(self.names)})

    def write(self, path: Path) -> None:
        """Write every span (name id, start, end, parent) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32))
