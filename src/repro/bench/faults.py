"""Resilience battery: what fault campaigns cost, and how fast runs recover.

Fixed-seed cases over one flood field (a 10×4 grid, 10 simulated seconds).
The first is the fault-free reference; four inject one node-level fault
class each (link blackout, noise burst, mote crash+reboot with
volatile-state loss, frame corruption); one runs a *generated* correlated
regional-outage campaign (``FaultPlan.generate`` with seeded
``correlated_crash`` draws); the rest SIGKILL a sharded worker and let the
supervisor heal it.  Every row reports delivery against the reference
(``delivery_ratio``), the fault counters, and — where they apply — recovery
time and restart accounting:

* ``recovery_s`` (mote-crash case): the run is stepped in 1 s slices next to
  an identical fault-free build, and recovery is the first slice after the
  reboot whose delivery rate is back within 90% of the reference slice —
  measured from the reboot instant.
* ``recovery_s`` (worker-crash cases): the supervisor's own measurement —
  wall time from the worker's death until its replacement, re-executing
  from t=0 against the message log, catches back up to the victim's last
  proven protocol round.  ``shard-crash-replay`` places the SIGKILL at 80%
  of the run, where re-execution has the most work to redo.
* ``restarts``/``bitequal`` (worker-crash cases): supervisor accounting, and
  whether the healed run's behavior counters came out bit-identical to the
  undisturbed sharded run (``bitequal`` should always read 1).
"""

from __future__ import annotations

import time

from repro.bench.reporting import Table, peak_rss_kb, write_artifact
from repro.faults.plan import FaultPlan
from repro.scenarios.spec import Scenario
from repro.shard.runner import TIMING_KEYS, ShardedRunner, cpu_count

DEFAULT_FAULT_SIM_S = 10.0
#: Slice width for the recovery probe, and the delivery-rate band that
#: counts as "recovered" (fraction of the fault-free slice's deliveries).
RECOVERY_SLICE_S = 1.0
RECOVERY_BAND = 0.9

_FAULT_COUNTER_KEYS = (
    "fault_events",
    "fault_crashes",
    "fault_reboots",
    "fault_link_windows",
    "fault_frames_corrupted",
    "fault_agents_lost",
)


def fault_scenario(seed: int = 0, duration_s: float = DEFAULT_FAULT_SIM_S) -> dict:
    """The battery's field: a 10×4 flood grid, busy enough that every fault
    class visibly moves delivery, small enough for CI."""
    return {
        "name": "fault-battery",
        "topology": {"kind": "grid", "width": 10, "height": 4},
        "workload": {"kind": "flood"},
        "duration_s": duration_s,
        "seed": seed,
        "spacing_m": 60.0,
    }


def _campaigns(duration_s: float) -> dict[str, dict]:
    """The node-level fault campaigns, scaled to the battery duration.

    Node targets sit at x=8–9, where the seed-0 flood wave keeps
    retransmitting through the whole run — a fault window over idle motes
    would measure nothing."""
    mid = round(duration_s * 0.3, 1)
    window = round(duration_s * 0.3, 1)
    return {
        "link-blackout": {
            "events": [
                {
                    "kind": "link",
                    "at_s": mid,
                    "links": [[[8, 2], [9, 2]], [[8, 3], [9, 3]]],
                    "prr": 0.0,
                    "duration_s": window,
                    "symmetric": True,
                }
            ]
        },
        "noise-burst": {
            "events": [
                {
                    "kind": "noise",
                    "at_s": mid,
                    "nodes": [[8, 1], [8, 2], [8, 3], [8, 4]],
                    "prr": 0.2,
                    "duration_s": window,
                }
            ]
        },
        "mote-crash": {
            "events": [
                {
                    "kind": "crash",
                    "at_s": mid,
                    "nodes": [[8, 2], [8, 3]],
                    "reboot_s": window,
                    "volatile": True,
                }
            ]
        },
        "frame-corruption": {
            "events": [
                {
                    "kind": "corrupt",
                    "at_s": mid,
                    "probability": 0.25,
                    "duration_s": window,
                }
            ]
        },
    }


def _received(net) -> int:
    return sum(radio.frames_received for radio in net.channel.radios)


def _run_case(case: str, spec: dict, faults: dict | None) -> dict:
    """Drive one single-process case end to end and flatten its row."""
    scenario = dict(spec)
    if faults is not None:
        scenario["faults"] = faults
    started = time.perf_counter()
    deployed = Scenario.from_spec(scenario).build()
    row = deployed.run()
    wall_s = time.perf_counter() - started
    result = {
        "case": case,
        "nodes": row["nodes"],
        "sim_s": row["sim_s"],
        "wall_s": round(wall_s, 4),
        "events": row["events"],
        "events_per_s": round(row["events"] / wall_s) if wall_s > 0 else 0,
        "frames": row["frames"],
        "frames_received": _received(deployed.net),
        "peak_rss_kb": peak_rss_kb(),
    }
    for key in _FAULT_COUNTER_KEYS:
        result[key] = row.get(key, 0)
    return result


def _measure_recovery(
    spec: dict, faults: dict, fault_end_s: float, duration_s: float
) -> float:
    """Step a faulted build next to a fault-free twin in 1 s slices; recovery
    is the first post-reboot slice back within ``RECOVERY_BAND`` of the
    twin's delivery rate, measured from the reboot instant."""
    reference = Scenario.from_spec(dict(spec)).build()
    faulted = Scenario.from_spec(dict(spec, faults=faults)).build()
    slices = int(round(duration_s / RECOVERY_SLICE_S))
    ref_prev = bad_prev = 0
    for index in range(slices):
        reference.net.run(RECOVERY_SLICE_S)
        faulted.net.run(RECOVERY_SLICE_S)
        ref_delta = _received(reference.net) - ref_prev
        bad_delta = _received(faulted.net) - bad_prev
        ref_prev += ref_delta
        bad_prev += bad_delta
        slice_end = (index + 1) * RECOVERY_SLICE_S
        if slice_end <= fault_end_s:
            continue
        if bad_delta >= RECOVERY_BAND * ref_delta:
            return round(slice_end - fault_end_s, 1)
    return round(duration_s - fault_end_s, 1)  # never recovered in-window


def _run_selfheal(
    spec: dict,
    shards: int,
    *,
    kill_frac: float = 0.4,
    case: str | None = None,
) -> dict:
    """SIGKILL one sharded worker mid-run; report recovery cost and whether
    the healed counters are bit-identical to the undisturbed sharded run.

    ``kill_frac`` places the kill (a late kill leaves the replacement the
    most to re-execute).  ``recovery_s`` is the supervisor's own
    measurement: death to the replacement's catch-up round."""
    kill_at = round(spec["duration_s"] * kill_frac, 1)
    victim = shards - 1
    chaos = {"events": [{"kind": "worker_kill", "at_s": kill_at, "shard": victim}]}
    undisturbed = ShardedRunner(Scenario.from_spec(dict(spec, shards=shards))).run()
    started = time.perf_counter()
    healed = ShardedRunner(
        Scenario.from_spec(dict(spec, shards=shards, faults=chaos))
    ).run()
    wall_s = time.perf_counter() - started
    strip = lambda result: {  # noqa: E731 - tiny local projection
        k: v for k, v in result.counters.items() if k not in TIMING_KEYS
    }
    recoveries = healed.supervision.get("recoveries", ())
    row = {
        "case": case or f"shard-selfheal-w{shards}",
        "nodes": healed.counters["nodes"],
        "sim_s": spec["duration_s"],
        "wall_s": round(wall_s, 4),
        "events": healed.counters["events"],
        "events_per_s": healed.timings["events_per_s"],
        "frames": healed.counters["frames"],
        "frames_received": healed.counters.get("frames_received", 0),
        "restarts": healed.supervision.get("restarts", 0),
        "recovery_s": recoveries[0]["recovery_s"] if recoveries else 0.0,
        "bitequal": int(strip(healed) == strip(undisturbed)),
        "peak_rss_kb": peak_rss_kb(),
    }
    for key in _FAULT_COUNTER_KEYS:
        row[key] = healed.counters.get(key, 0)
    return row


def run_fault_bench(
    seed: int = 0,
    duration_s: float = DEFAULT_FAULT_SIM_S,
    shards: int = 2,
    json_path: str | None = "BENCH_faults.json",
) -> Table:
    """The resilience battery; writes ``BENCH_faults.json`` unless disabled."""
    spec = fault_scenario(seed=seed, duration_s=duration_s)
    table = Table(
        "faults",
        "fault-injection resilience battery (fixed-seed campaigns + self-healing shards)",
        [
            "case",
            "wall s",
            "events/s",
            "frames",
            "received",
            "delivery",
            "faults",
            "lost",
            "recovery s",
            "restarts",
            "rss kB",
        ],
    )
    rows: list[dict] = []
    baseline = _run_case("baseline", spec, None)
    rows.append(baseline)
    for case, campaign in _campaigns(duration_s).items():
        row = _run_case(case, spec, campaign)
        if case == "mote-crash":
            event = campaign["events"][0]
            fault_end_s = event["at_s"] + event["reboot_s"]
            row["recovery_s"] = _measure_recovery(
                spec, campaign, fault_end_s, duration_s
            )
        rows.append(row)
    # A drawn campaign instead of a written one: seeded correlated regional
    # outages, resolved into staggered per-node crashes at build time.
    generated = FaultPlan.generate(
        seed,
        {
            "field": [[1, 1], [10, 4]],
            "duration_s": duration_s,
            "count": 2,
            "kinds": ["correlated_crash"],
            "reboot_s": [0.1 * duration_s, 0.2 * duration_s],
        },
    )
    rows.append(_run_case("correlated-outage", spec, generated.to_spec()))
    rows.append(_run_selfheal(spec, shards))
    # The same SIGKILL placed late in the run: the most re-execution work.
    rows.append(
        _run_selfheal(
            spec, shards, kill_frac=0.8, case=f"shard-crash-replay-w{shards}"
        )
    )
    reference_received = baseline["frames_received"] or 1
    for row in rows:
        row["delivery_ratio"] = round(row["frames_received"] / reference_received, 3)
        table.add_row(
            row["case"],
            row["wall_s"],
            row["events_per_s"],
            row["frames"],
            row["frames_received"],
            row["delivery_ratio"],
            row.get("fault_events", 0),
            row.get("fault_agents_lost", 0),
            row.get("recovery_s", "-"),
            row.get("restarts", "-"),
            row.get("peak_rss_kb", 0),
        )
    table.add_note(
        f"seed {seed}, {duration_s:.0f} simulated seconds per case on "
        f"{cpu_count()} usable core(s); delivery is frames received vs the "
        "fault-free baseline; mote-crash recovery is measured from the "
        "reboot instant to the first 1 s slice back within "
        f"{RECOVERY_BAND:.0%} of the baseline delivery rate; worker-crash "
        "recovery is the supervisor's death-to-catch-up wall time, the "
        "replacement re-executing from t=0 against the message log "
        "(shard-crash-replay kills at 80% of the run); bitequal=1 means the "
        "healed run reproduced the undisturbed counters exactly"
    )
    for row in rows:
        if "bitequal" in row and not row["bitequal"]:  # pragma: no cover
            table.add_note(
                f"WARNING: {row['case']} counters diverged from the "
                "undisturbed run"
            )
    write_artifact(
        table, json_path, rows, seed=seed, duration_s=duration_s, cpus=cpu_count()
    )
    return table
