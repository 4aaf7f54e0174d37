"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flood-dense --seed 0 --seconds 24 --trace 0

Run from the root of a checkout: the simulator is imported from ``src/``.
``--trace 0`` times repeated episodes of the workload's pinned deployment
and prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced episodes and prints the per-layer metrics.  Either way every
episode's behaviour counters are checked, and a seeded probe of the same
spec checks the program on an input held out from timing.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fewest timed episodes a run makes, however long they take.
MIN_EPISODES = 3
#: Wall limit of one episode; exceeding it fails the episode.
EPISODE_LIMIT_S = 45
#: No new episode starts after this much wall time (keeps a run < 180 s).
RUN_LIMIT_S = 110

END_TO_END = (
    ("sim_x_real", "sim_s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.compactions", "count", "lower"),
    ("tinyos.tasks", "count", "lower"),
    ("tinyos.timer_fires", "count", "lower"),
    ("tinyos.self_s", "s", "lower"),
    ("radio.fanout.calls", "count", "lower"),
    ("radio.fanout.self_s", "s", "lower"),
    ("radio.fanout.vector_share", "ratio", "higher"),
    ("radio.fanout.mean_audience", "radios", "lower"),
    ("radio.fanout.delivery_ratio", "ratio", "higher"),
    ("radio.receptions", "count", "higher"),
    ("radio.collisions", "count", "lower"),
    ("radio.prr_drops", "count", "lower"),
    ("radio.linkcache.hit_ratio", "ratio", "higher"),
    ("radio.frames", "count", "lower"),
    ("radio.mac.self_s", "s", "lower"),
    ("radio.sense.calls", "count", "lower"),
    ("radio.sense.self_s", "s", "lower"),
    ("radio.sense.vector_share", "ratio", "higher"),
    ("radio.mac.attempts_per_frame", "ratio", "lower"),
    ("radio.mac_giveups", "count", "lower"),
    ("radio.index.moves", "count", "lower"),
    ("radio.index.rebuilds", "count", "lower"),
    ("radio.index.self_s", "s", "lower"),
    ("net.sent", "count", "higher"),
    ("net.received", "count", "higher"),
    ("net.queue_overflows", "count", "lower"),
    ("net.beacons", "count", "lower"),
    ("net.tx.self_s", "s", "lower"),
    ("net.rx.self_s", "s", "lower"),
    ("agilla.instructions", "count", "higher"),
    ("agilla.slices", "count", "lower"),
    ("agilla.instr_per_slice", "ratio", "higher"),
    ("agilla.vm.self_s", "s", "lower"),
    ("agilla.ns_per_instr", "ns", "lower"),
    ("agilla.migrations", "count", "higher"),
    ("agilla.migration.failures", "count", "lower"),
    ("agilla.migration.self_s", "s", "lower"),
    ("agilla.remote.ops", "count", "higher"),
    ("agilla.remote.timeouts", "count", "lower"),
    ("agilla.remote.self_s", "s", "lower"),
    ("agilla.ts.self_s", "s", "lower"),
    ("dynamics.moves", "count", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("network.build_s", "s", "lower"),
    ("scenarios.install_s", "s", "lower"),
    ("shard.partition_s", "s", "lower"),
    ("shard.worker_build_s", "s", "lower"),
    ("shard.advance_s", "s", "lower"),
    ("shard.wait_s", "s", "lower"),
    ("shard.supervisor_s", "s", "lower"),
    ("shard.protocol.self_s", "s", "lower"),
    ("shard.balance", "ratio", "lower"),
    ("shard.rounds", "count", "lower"),
    ("shard.envelopes", "count", "lower"),
    ("shard.checkpoints", "count", "lower"),
    ("shard.worker_rss_mb", "MB", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
)


class EpisodeTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise EpisodeTimeout(f"episode exceeded {EPISODE_LIMIT_S} s")


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, fn, *args, **kwargs):
        """Run one operation under the time limit; ``None`` if it failed."""
        self.attempted += 1
        signal.alarm(EPISODE_LIMIT_S)
        try:
            return fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - a failed operation, reported
            self.fail(f"{type(error).__name__}: {error}")
            return None
        finally:
            signal.alarm(0)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


PINS = HERE / "pinned.json"


def _load_pins() -> dict:
    return json.loads(PINS.read_text())


def record_pins(workload) -> None:
    """Re-pin a workload's counters (after a deliberate behaviour change)."""
    from workloads import PINNED_PROBE_SEEDS, run_episode

    entries = {
        _pin_key(workload.spec["seed"], workload.duration_s): run_episode(
            workload, workload.duration_s
        ).counters
    }
    for seed in PINNED_PROBE_SEEDS:
        entries[_pin_key(seed, workload.probe_s)] = run_episode(
            workload, workload.probe_s, seed
        ).counters
    table = _load_pins()
    table[workload.name] = entries
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {workload.name}: {sorted(entries)}")


def _pin_key(seed: int, duration_s: float) -> str:
    return f"{seed}@{duration_s:g}"


def _check(ledger: Ledger, what: str, counters: dict, expected: dict | None) -> bool:
    """Counters must equal ``expected`` on every key it pins."""
    if expected is None:
        return True
    diff = {
        key: (counters.get(key), value)
        for key, value in expected.items()
        if counters.get(key) != value
    }
    if diff:
        ledger.fail(f"{what}: counters differ (got, want): {diff}")
        return False
    return True


def _sane(ledger: Ledger, what: str, counters: dict) -> bool:
    """Laws every workload obeys whatever its seed."""
    broken = [
        law
        for law, holds in (
            ("frames > 0", counters["frames"] > 0),
            ("receptions > 0", counters["receptions"] > 0),
            ("coverage >= 1", counters["coverage"] >= 1),
            ("index_rebuilds == 0", counters.get("index_rebuilds", 0) == 0),
        )
        if not holds
    ]
    if broken:
        ledger.fail(f"{what}: violated {broken}")
        return False
    return True


def manifest(workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    from repro.radio.channel import VECTOR_FANOUT_MIN, VECTOR_SENSE_MIN
    from repro.shard.runner import DEFAULT_CHECKPOINT_EVERY

    return {
        "workload": workload.name,
        "seed": seed,
        "timed_seed": workload.spec["seed"],
        "spec_digest": workload.digest(),
        "duration_s": workload.duration_s,
        "probe_s": workload.probe_s,
        "seconds": seconds,
        "trace": trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "VECTOR_FANOUT_MIN": VECTOR_FANOUT_MIN,
        "VECTOR_SENSE_MIN": VECTOR_SENSE_MIN,
        "DEFAULT_CHECKPOINT_EVERY": DEFAULT_CHECKPOINT_EVERY,
    }


def peak_rss_mb(workload) -> float:
    """Peak resident memory of this run, shard workers included.

    A worker's peak is not reported on its own, so a sharded run counts the
    largest child's peak once per shard on top of the parent's: the sum a
    ``ps`` RSS column would show, copy-on-write pages counted per process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    shards = workload.spec.get("shards", 1) if workload.sharded else 0
    return (own + shards * children) / 1024.0


# ----------------------------------------------------------------------
def timed_run(workload, seconds: float, ledger: Ledger, pins: dict) -> dict:
    from workloads import run_episode, setup_sample

    started = time.perf_counter()
    deadline = started + seconds
    expected = pins.get(_pin_key(workload.spec["seed"], workload.duration_s))
    setups: list[float] = []
    raw_setups: list[float] = []
    for _ in range(workload.setup_probes):
        sample = ledger.attempt(setup_sample, workload)
        if sample is not None:
            setups.append(sample.setup_s)
            raw_setups.append(sample.raw_setup_s)
    rates: list[float] = []
    raw_rates: list[float] = []
    walls: list[float] = []
    reference = expected
    while True:
        episode = ledger.attempt(run_episode, workload, workload.duration_s)
        if episode is not None:
            if reference is None:
                reference = episode.counters  # unpinned: all episodes agree
            if _check(ledger, "timed episode", episode.counters, reference):
                setups.append(episode.setup_s)
                raw_setups.append(episode.raw_setup_s)
                rates.append(workload.duration_s / episode.sim_wall_s)
                raw_rates.append(workload.duration_s / episode.raw_wall_s)
                walls.append(episode.raw_setup_s + episode.raw_wall_s)
        now = time.perf_counter()
        if ledger.attempted - workload.setup_probes >= MIN_EPISODES and (
            now + (statistics.median(walls) if walls else 0.0) > deadline
            or now - started > RUN_LIMIT_S
        ):
            break
    if not rates or not setups:
        raise SystemExit("perfbench: no timed episode completed: " + "; ".join(ledger.reasons))
    print(f"# {len(rates)} timed episodes; sim_x_real per episode (scaled/raw): "
          + ", ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(rates, raw_rates)))
    print("# setup_s samples (scaled/raw): "
          + ", ".join(f"{a:.4f}/{b:.4f}" for a, b in zip(setups, raw_setups)))
    print(f"# raw medians: sim_x_real {statistics.median(raw_rates):.4f} sim_s/s, "
          f"setup_s {statistics.median(raw_setups):.5f} s")
    return {
        "sim_x_real": statistics.median(rates),
        "setup_s": statistics.median(setups),
    }


def probe(workload, seed: int, ledger: Ledger, pins: dict) -> None:
    """The seeded correctness probe: the workload's spec with the run's seed.

    Run twice (single process: two builds must agree exactly) or once per
    shard transport (process mode must equal the inline reference), checked
    against pinned counters when this seed and duration are pinned.
    """
    from workloads import run_episode, sharded_episode

    if workload.sharded:
        first = ledger.attempt(sharded_episode, workload, workload.probe_s, seed)
        second = ledger.attempt(sharded_episode, workload, workload.probe_s, seed, "inline")
    else:
        first = ledger.attempt(run_episode, workload, workload.probe_s, seed)
        second = ledger.attempt(run_episode, workload, workload.probe_s, seed)
    if first is None or second is None:
        return
    if _sane(ledger, "probe", first.counters):
        if _check(ledger, "probe rerun", second.counters, first.counters):
            _check(ledger, "probe", first.counters, pins.get(_pin_key(seed, workload.probe_s)))


def traced_run(workload, seconds: float, ledger: Ledger, pins: dict) -> dict:
    from spans import Tracer
    from workloads import run_episode

    started = time.perf_counter()
    deadline = started + seconds
    expected = pins.get(_pin_key(workload.spec["seed"], workload.duration_s))
    tracer = Tracer()
    plain: list = []
    traced: list = []
    while True:
        episode = ledger.attempt(run_episode, workload, workload.duration_s)
        if episode is not None and _check(ledger, "untraced episode", episode.counters, expected):
            expected = episode.counters
            plain.append(episode)
        tracer.install()
        try:
            tracer.build = {}
            episode = ledger.attempt(run_episode, workload, workload.duration_s, None, tracer)
            build = dict(tracer.build)
        finally:
            tracer.uninstall()
        if episode is not None and _check(ledger, "traced episode", episode.counters, expected):
            episode.build = build
            traced.append(episode)
        now = time.perf_counter()
        pair = (plain[-1].sim_wall_s + traced[-1].sim_wall_s) if plain and traced else 0.0
        if now + pair > deadline or now - started > RUN_LIMIT_S:
            break
    if not plain or not traced:
        raise SystemExit("perfbench: no traced episode completed: " + "; ".join(ledger.reasons))
    return layer_metrics(workload, plain, traced)


def layer_metrics(workload, plain: list, traced: list) -> dict:
    """Per-layer metrics: times are means over traced episodes (so they add
    up), counts come from the last one (they repeat exactly)."""
    n = len(traced)

    def mean_s(get) -> float:
        return sum(get(ep) for ep in traced) / n

    def self_s(layer: str) -> float:
        return mean_s(lambda ep: ep.trace["self_ns"].get(layer, 0)) / 1e9

    last = traced[-1].trace
    counts = last["counts"]
    calls = last["calls"]
    fanout = last["fanout"]
    frames = counts["frames"]
    sense_calls = counts["sense_idle"] + counts["sense_scalar"] + counts["sense_vector"]
    lookups = counts["cache_hits"] + counts["cache_misses"]
    slices = calls.get("AgillaEngine._dispatch", 0)
    wall_s = mean_s(lambda ep: ep.trace["wall_ns"]) / 1e9
    unattributed = self_s("unattributed")
    plain_wall = statistics.median(ep.raw_wall_s for ep in plain)
    traced_wall = statistics.median(ep.raw_wall_s for ep in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "sim.events": counts["events"],
        "sim.self_s": self_s("sim"),
        "sim.ns_per_event": ratio(self_s("sim") * 1e9, counts["events"]),
        "sim.compactions": counts["compactions"],
        "tinyos.tasks": counts["tasks"],
        "tinyos.timer_fires": calls.get("Timer._fire", 0),
        "tinyos.self_s": self_s("tinyos"),
        "radio.fanout.calls": fanout.get("calls", 0),
        "radio.fanout.self_s": self_s("radio.fanout"),
        "radio.fanout.vector_share": ratio(fanout.get("vector", 0), fanout.get("calls", 0)),
        "radio.fanout.mean_audience": ratio(fanout.get("audience", 0), fanout.get("calls", 0)),
        "radio.fanout.delivery_ratio": ratio(counts["receptions"], fanout.get("audience", 0)),
        "radio.receptions": counts["receptions"],
        "radio.collisions": counts["collisions"],
        "radio.prr_drops": counts["prr_drops"],
        "radio.linkcache.hit_ratio": ratio(counts["cache_hits"], lookups),
        "radio.frames": frames,
        "radio.mac.self_s": self_s("radio.mac"),
        "radio.sense.calls": sense_calls,
        "radio.sense.self_s": self_s("radio.sense"),
        "radio.sense.vector_share": ratio(counts["sense_vector"], sense_calls),
        "radio.mac.attempts_per_frame": ratio(sense_calls, frames),
        "radio.mac_giveups": counts["mac_giveups"],
        "radio.index.moves": counts["index_moves"],
        "radio.index.rebuilds": traced[-1].counters.get("index_rebuilds", 0),
        "radio.index.self_s": self_s("radio.index"),
        "net.sent": counts["net_sent"],
        "net.received": counts["net_received"],
        "net.queue_overflows": counts["queue_overflows"],
        "net.beacons": counts["beacons"],
        "net.tx.self_s": self_s("net.tx"),
        "net.rx.self_s": self_s("net.rx"),
        "agilla.instructions": counts["instructions"],
        "agilla.slices": slices,
        "agilla.instr_per_slice": ratio(counts["instructions"], slices),
        "agilla.vm.self_s": self_s("agilla.vm"),
        "agilla.ns_per_instr": ratio(self_s("agilla.vm") * 1e9, counts["instructions"]),
        "agilla.migrations": counts["migrations"],
        "agilla.migration.failures": counts["migration_failures"],
        "agilla.migration.self_s": self_s("agilla.migration"),
        "agilla.remote.ops": counts["remote_ops"],
        "agilla.remote.timeouts": counts["remote_timeouts"],
        "agilla.remote.self_s": self_s("agilla.remote"),
        "agilla.ts.self_s": self_s("agilla.ts"),
        "dynamics.moves": counts["moves"],
        "dynamics.self_s": self_s("dynamics"),
        "shard.protocol.self_s": self_s("shard.protocol"),
        "trace.overhead": traced_wall / plain_wall - 1.0,
        "trace.unattributed_share": ratio(unattributed, wall_s),
        "trace.unattributed_s": unattributed,
        "trace.wall_s": wall_s,
    }
    metrics.update(_build_metrics(workload, traced))
    metrics.update(_shard_metrics(workload, traced))
    return metrics


def _build_metrics(workload, traced: list) -> dict:
    n = len(traced)
    if not workload.sharded:
        topo = sum(ep.build.get("topology", 0.0) for ep in traced) / n
        network = sum(ep.build.get("network", 0.0) for ep in traced) / n
        total = sum(ep.build.get("total", 0.0) for ep in traced) / n
        return {
            "topology.build_s": topo,
            "network.build_s": network,
            "scenarios.install_s": total - topo - network,
        }
    topo = network = install = 0.0
    for ep in traced:
        slowest = max(ep.shard["per_shard"], key=lambda stats: stats["build_s"])
        topo += ep.build.get("topology", 0.0)
        network += slowest["trace"]["network_build_s"]
        install += slowest["build_s"] - slowest["trace"]["network_build_s"]
    return {
        "topology.build_s": topo / n,
        "network.build_s": network / n,
        "scenarios.install_s": install / n,
    }


def _shard_metrics(workload, traced: list) -> dict:
    names = (
        "shard.partition_s", "shard.worker_build_s", "shard.advance_s",
        "shard.wait_s", "shard.supervisor_s", "shard.balance", "shard.rounds",
        "shard.envelopes", "shard.checkpoints", "shard.worker_rss_mb",
    )
    if not workload.sharded:
        return dict.fromkeys(names, 0)
    n = len(traced)
    totals = dict.fromkeys(names, 0.0)
    for ep in traced:
        workers = ep.shard["per_shard"]
        advance = [w["trace"]["entry_ns"].get("ShardWorker.advance", 0) / 1e9 for w in workers]
        waits = [w["trace"]["entry_ns"].get("ShardWorker.collect_rounds", 0) / 1e9 for w in workers]
        lifetime = max(w["build_s"] + w["wall_s"] for w in workers)
        totals["shard.partition_s"] += ep.build.get("partition", 0.0)
        totals["shard.worker_build_s"] += max(w["build_s"] for w in workers)
        totals["shard.advance_s"] += max(advance)
        totals["shard.wait_s"] += max(waits)
        totals["shard.supervisor_s"] += ep.shard["run_wall_s"] - lifetime
        totals["shard.balance"] += max(advance) / min(advance) if min(advance) else 0.0
        totals["shard.worker_rss_mb"] += max(w["trace"]["rss_kb"] for w in workers) / 1024.0
    last = traced[-1].shard
    metrics = {name: value / n for name, value in totals.items()}
    metrics["shard.rounds"] = max(w["rounds"] for w in last["per_shard"])
    metrics["shard.envelopes"] = sum(w["envelopes_out"] for w in last["per_shard"])
    metrics["shard.checkpoints"] = last["supervision"].get("checkpoints", 0)
    return metrics


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="time the held-out probe deployment instead (a few sim-seconds)",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help="record the workload's counters in pinned.json and exit",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import HELD_OUT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.pin:
        record_pins(workload)
        return 0
    if args.smoke:
        workload = dataclasses.replace(
            workload,
            spec=dict(workload.spec, seed=HELD_OUT_SEED),
            duration_s=workload.probe_s,
            setup_probes=1,
        )
    signal.signal(signal.SIGALRM, _alarm)
    pins = _load_pins().get(workload.name, {})
    ledger = Ledger()
    print(json.dumps({"manifest": manifest(workload, args.seed, args.seconds, bool(args.trace))}))
    if args.trace:
        values = traced_run(workload, args.seconds, ledger, pins)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        timed = timed_run(workload, args.seconds, ledger, pins)
        values = {
            "sim_x_real": timed["sim_x_real"],
            "setup_s": timed["setup_s"],
            "peak_rss_mb": peak_rss_mb(workload),
        }
        units = dict(END_TO_END)
    probe(workload, args.seed, ledger, pins)
    for reason in ledger.reasons:
        print(f"# FAILED: {reason}")
    for name, value in values.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
