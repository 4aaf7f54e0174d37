"""Outside-in per-layer tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each layer's entry points, at class or module level, with wrappers that time
a *span* and call the original; :func:`uninstall` puts the originals back.
Install before a deployment is built: components bind methods (receive
dispatch, task posts, timer fires) while they are constructed.

A span's *self* time is its duration minus the durations of the spans opened
inside it, so self times add up exactly (integer nanoseconds) to the wall
time of the root spans: ``Simulator.run`` in one process, ``ShardWorker.run``
in a shard worker.  Every kernel event callback is a span of its own
(``unattributed``), so time the kernel loop spends between callbacks is the
``sim`` layer's self time and callback time that no named layer claims is
reported as unattributed rather than lost.
"""

from __future__ import annotations

import resource
import time

import repro.scenarios.spec as spec_module
import repro.shard.runner as runner_module
import repro.shard.worker as worker_module
from repro.agilla.engine import AgillaEngine
from repro.agilla.migration import MigrationService
from repro.agilla.remote_ops import RemoteTSOpManager
from repro.agilla.tuplespace import TupleSpace
from repro.dynamics import DeploymentDynamics
from repro.net.stack import NetworkStack
from repro.radio.channel import Channel, Radio
from repro.scenarios.spec import Scenario
from repro.shard.worker import ShardWorker
from repro.sim.kernel import Simulator
from repro.tinyos.tasks import TaskQueue
from repro.tinyos.timer import Timer

from workloads import network_counts

_clock = time.perf_counter_ns

#: layer -> methods whose calls are spans of that layer.
METHOD_SPANS: dict[str, list[tuple[type, str]]] = {
    "sim": [(Simulator, "run")],
    "tinyos": [(Timer, "_fire")],
    "radio.mac": [
        (Radio, "send"),
        (Radio, "_carrier_sense"),
        (Radio, "_end_tx"),
        (Channel, "begin_transmission"),
    ],
    "radio.sense": [(Channel, "busy_for")],
    "radio.fanout": [(Channel, "end_transmission")],
    "radio.index": [(Channel, "move"), (Channel, "detach")],
    "net.tx": [(NetworkStack, "send")],
    "agilla.vm": [(AgillaEngine, "_dispatch"), (AgillaEngine, "_continue")],
    "agilla.migration": [
        (MigrationService, name)
        for name in (
            "initiate",
            "_on_data",
            "_on_ack",
            "_on_e2e",
            "_ack_timeout",
            "_abort_incoming",
        )
    ],
    "agilla.remote": [
        (RemoteTSOpManager, name)
        for name in ("issue", "_on_request", "_on_reply", "_timeout")
    ],
    "agilla.ts": [
        (TupleSpace, name) for name in ("out", "rdp", "inp", "count", "remove_all")
    ],
    "dynamics": [(DeploymentDynamics, "_tick")],
    "shard.protocol": [
        (ShardWorker, "post_rounds"),
        (ShardWorker, "collect_rounds"),
        (ShardWorker, "advance"),
        (ShardWorker, "run"),
    ],
}

#: Layer of the callbacks handed to these entry points: (owner, method,
#: index of the callable among the positional arguments after ``self``).
CALLBACK_SPANS = (
    ("unattributed", Simulator, "schedule_at", 1),
    ("tinyos", TaskQueue, "post", 1),
    ("net.rx", Radio, "set_receive_callback", 0),
)


class Tracer:
    """Span accounting for one process (a forked worker gets its own copy)."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.build: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        self.self_ns: dict[str, int] = {}
        #: Inclusive nanoseconds and calls per wrapped entry point.
        self.entry_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: One child-time accumulator per open span; index 0 sums the roots.
        self.stack = [0]
        self.fanout = {"calls": 0, "vector": 0, "audience": 0}

    def snapshot(self) -> dict:
        return {
            "wall_ns": self.stack[0],
            "self_ns": dict(self.self_ns),
            "entry_ns": dict(self.entry_ns),
            "calls": dict(self.calls),
            "fanout": dict(self.fanout),
        }

    # ------------------------------------------------------------------
    def span(self, layer: str, entry: str, fn):
        tracer = self

        def spanned(*args, **kwargs):
            stack = tracer.stack
            stack.append(0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_ns = tracer.self_ns
                self_ns[layer] = self_ns.get(layer, 0) + elapsed - inner
                entry_ns = tracer.entry_ns
                entry_ns[entry] = entry_ns.get(entry, 0) + elapsed
                calls = tracer.calls
                calls[entry] = calls.get(entry, 0) + 1

        return spanned

    def timed(self, step: str, fn):
        """Plain wall timer (no span) for build steps, kept in ``build``."""
        tracer = self

        def timed_step(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.build[step] = tracer.build.get(step, 0.0) + (
                    time.perf_counter() - start
                )

        return timed_step

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, entries in METHOD_SPANS.items():
            for owner, name in entries:
                entry = f"{owner.__name__}.{name}"
                self._patch(owner, name, self.span(layer, entry, getattr(owner, name)))
        for layer, owner, name, position in CALLBACK_SPANS:
            self._patch(owner, name, self._callback_patch(layer, owner, name, position))
        self._patch_fanout_counts()
        self._patch_builds()
        self._patch_worker()

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _callback_patch(self, layer: str, owner, name: str, position: int):
        original = getattr(owner, name)
        span = self.span
        entry = f"{owner.__name__}.{name}:callback"

        def patched(obj, *args, **kwargs):
            fn = args[position]
            if fn is not None:
                args = (*args[:position], span(layer, entry, fn), *args[position + 1 :])
            return original(obj, *args, **kwargs)

        return patched

    def _patch_fanout_counts(self) -> None:
        """Audience size and path of every fan-out, read after the span from
        the (then cached) hearer list and the channel's public threshold."""
        spanned = Channel.end_transmission
        tracer = self

        def end_transmission(channel, tx):
            spanned(channel, tx)
            if tx.corrupted:
                return
            audience = len(channel.hearers(tx.radio))
            if audience:
                counts = tracer.fanout
                counts["calls"] += 1
                counts["audience"] += audience
                if audience >= channel.vector_fanout_min:
                    counts["vector"] += 1

        self._patch(Channel, "end_transmission", end_transmission)

    def _patch_builds(self) -> None:
        tracer = self
        build = self.timed("total", Scenario.build)

        def scenario_build(scenario):
            tracer.build = {}
            return build(scenario)

        self._patch(Scenario, "build", scenario_build)
        self._patch(spec_module, "topology_from_spec",
                    self.timed("topology", spec_module.topology_from_spec))
        self._patch(spec_module, "SensorNetwork",
                    self.timed("network", spec_module.SensorNetwork))
        self._patch(runner_module, "topology_from_spec",
                    self.timed("topology", runner_module.topology_from_spec))
        self._patch(runner_module, "partition_topology",
                    self.timed("partition", runner_module.partition_topology))
        self._patch(worker_module, "SensorNetwork",
                    self.timed("network", worker_module.SensorNetwork))

    def _patch_worker(self) -> None:
        """Inside a forked worker: restart the accounting when the protocol
        loop starts, and ship the totals home in the worker's stats."""
        tracer = self
        run = ShardWorker.run
        stats = ShardWorker.stats

        def worker_run(worker, *args, **kwargs):
            tracer.reset()
            return run(worker, *args, **kwargs)

        def worker_stats(worker):
            out = stats(worker)
            snap = tracer.snapshot()
            snap["counts"] = dict(
                network_counts(worker.net), moves=worker.dynamics.stats()["moves"]
            )
            snap["network_build_s"] = tracer.build.get("network", 0.0)
            snap["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out["trace"] = snap
            return out

        self._patch(ShardWorker, "run", worker_run)
        self._patch(ShardWorker, "stats", worker_stats)

    # ------------------------------------------------------------------
    def merge_workers(self, episode) -> dict:
        """One trace for a sharded episode: worker totals summed."""
        traces = [stats["trace"] for stats in episode.shard["per_shard"]]
        merged = {"wall_ns": 0, "self_ns": {}, "entry_ns": {}, "calls": {},
                  "fanout": {}, "counts": {}}
        for trace in traces:
            merged["wall_ns"] += trace["wall_ns"]
            for key in ("self_ns", "entry_ns", "calls", "fanout", "counts"):
                for name, value in trace[key].items():
                    merged[key][name] = merged[key].get(name, 0) + value
        merged["workers"] = traces
        return merged
