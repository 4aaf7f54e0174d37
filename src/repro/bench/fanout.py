"""The fan-out micro-benchmark: pure ``end_transmission`` throughput.

PR 6 vectorized the delivery fan-out — per-node state in the
:class:`~repro.radio.field.RadioField` arrays, one RNG vector draw per frame
— and this bench pins the win where it lives, stripped of MAC, protocol, and
kernel noise.  Each cell deploys N radios on a grid whose spacing targets a
mean audience (sparse ≈ the builtin scenarios' degree, mid ≈ a dense patch,
dense = everyone hears everyone), then hammers one hub transmitter's
``begin_transmission``/``end_transmission`` pair and reports fan-outs/s.
Every radio is set up the way a network stack sets up its own: a receive
callback behind an addressed acceptance rule that takes frames from its
four grid neighbours only, and the hub alternates a broadcast with a
unicast to one neighbour — so each fan-out pays the hand-off a deployment
pays, where most receptions are refused or addressed elsewhere.

Every cell is measured twice: on the default (vectorized above
``VECTOR_FANOUT_MIN``) path and again with the threshold forced unreachable
(pure scalar loop).  Both consume the RNG stream identically, so the two
runs decide the *same* deliveries — the ``speedup`` column is a controlled
experiment, and the committed ``results/BENCH_fanout.json`` rows gate under
``bench compare --max-drop`` on the default path's ``events_per_s``.

A second row family rides in the same artifact (and gates the same way,
keyed by ``case``): ``breakeven-*`` rows sweep audience width on an
all-hear field to locate the fan-out width where the vector pass overtakes
the scalar loop — the measurement backing the committed
``VECTOR_FANOUT_MIN``.

Every wall-clock figure is the fastest of :data:`TIMING_REPEATS` timing
blocks, a cell's vector and scalar blocks interleaved (``timeit.repeat``
practice — see the constant's note on single-core noise).
"""

from __future__ import annotations

import math
import time

from repro.bench.reporting import Table, peak_rss_kb, write_artifact
from repro.location import Location
from repro.mote import Environment, Mote
from repro.radio import Channel, Frame, Transmission, UniformLossLinks
from repro.sim.kernel import Simulator

#: Radio range for every cell (the MICA2 figure the scenarios use).
RANGE_M = 100.0

#: Density labels → target mean audience of the hub transmitter.  ``None``
#: means all-in-range: spacing shrinks until the whole field hears the hub.
DENSITIES: dict[str, int | None] = {"sparse": 8, "mid": 64, "dense": None}

DEFAULT_NODE_COUNTS = (100, 400, 1000)

#: Timing blocks per measurement; the reported wall is the fastest block
#: (``timeit.repeat`` practice).  On a single-core runner any background
#: process steals whole scheduler slices from one block, and the minimum is
#: the estimator least polluted by that — both paths of every cell get the
#: same treatment, their blocks interleaved, so speedups stay controlled.
TIMING_REPEATS = 3


def _spacing_for(target_audience: int | None, nodes: int) -> float:
    """Grid spacing (m) that puts ~``target_audience`` nodes inside range.

    A node in an infinite grid of spacing ``s`` has ~``π·R²/s²`` neighbors
    within range R, so ``s = R·sqrt(π/(target+1))``.  All-in-range cells
    instead pack the whole field into a square whose diagonal fits R.
    """
    if target_audience is None:
        side = max(1, math.ceil(math.sqrt(nodes)))
        return (RANGE_M * 0.95) / (side * math.sqrt(2.0))
    return RANGE_M * math.sqrt(math.pi / (target_audience + 1))


def _ignore(frame: Frame) -> None:
    """The rig's receive callback: the hand-off is measured, not the stack."""


def _deploy(nodes: int, spacing_m: float, seed: int) -> tuple[Channel, "object"]:
    sim = Simulator(seed=seed)
    channel = Channel(sim, UniformLossLinks(range_m=RANGE_M), grid_spacing_m=1.0)
    side = max(1, math.ceil(math.sqrt(nodes)))
    hub = None
    center = side // 2
    for index in range(nodes):
        x, y = index % side, index // side
        mote = Mote(sim, index + 1, Location(x, y), Environment())
        radio = channel.attach(mote, (x * spacing_m, y * spacing_m))
        # The rule a stack with a grid NeighborSetFilter hands its radio.
        neighbours = (
            (x + dx) + (y + dy) * side + 1
            for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1))
            if 0 <= x + dx < side and 0 <= (x + dx) + (y + dy) * side < nodes
        )
        radio.set_acceptance(True, neighbours)
        radio.set_receive_callback(_ignore)
        if (x, y) == (center, center):
            hub = radio
    assert hub is not None
    return channel, hub


def _time_fanouts(channel: Channel, hub, reps: int) -> tuple[float, int]:
    """Drive ``reps`` full fan-outs from the hub; return (wall s, receptions).

    The transmissions are placed on the air directly — no CSMA, no stack
    behind the callbacks — so the measurement isolates the reception
    decision: hearer lookup, eligibility, PRR resolution, loss draws, the
    counters and the acceptance rules' hand-off.  Fan-outs alternate a
    broadcast and a unicast to the hub's left-hand neighbour.
    """
    sim = channel.sim
    hub_id = hub.mote.id
    txs = []
    for dest in (0xFFFF, hub_id - 1):
        frame = Frame(hub_id, dest, 0x10, b"bench")
        txs.append(Transmission(hub, frame, sim.now, sim.now + channel.airtime_us(frame)))
    received_before = sum(radio.frames_received for radio in channel.radios)
    begin, end = channel.begin_transmission, channel.end_transmission
    started = time.perf_counter()
    for rep in range(reps):
        tx = txs[rep & 1]
        begin(tx)
        end(tx)
    wall = time.perf_counter() - started
    receptions = sum(radio.frames_received for radio in channel.radios) - received_before
    return wall, receptions


def _best_walls(cells: list[tuple[Channel, "object"]], reps: int) -> list[tuple[float, int]]:
    """Min-of-:data:`TIMING_REPEATS` fan-out timing (wall s, receptions) of
    each (channel, hub) cell.

    The cells' blocks are interleaved, so a burst of host noise lands on
    the vector and the scalar run of a comparison alike.  Every block
    drives ``reps`` fresh fan-outs (the RNG stream keeps advancing), so
    receptions are reported from each cell's fastest block.
    """
    best = [(math.inf, 0)] * len(cells)
    for _ in range(TIMING_REPEATS):
        for index, (channel, hub) in enumerate(cells):
            wall, got = _time_fanouts(channel, hub, reps)
            if wall < best[index][0]:
                best[index] = (wall, got)
    return best


#: Audience widths the break-even sweep samples (all-hear fields, so the
#: audience IS nodes - 1).
BREAK_EVEN_AUDIENCES = (4, 8, 12, 16, 20, 24, 32, 48)


def run_break_even(seed: int = 0, reps: int | None = None) -> tuple[list[dict], int | None]:
    """Locate the fan-out width where the vector pass overtakes the scalar
    loop: rows per sampled audience plus the smallest winning width."""
    rows = []
    break_even = None
    for audience in BREAK_EVEN_AUDIENCES:
        nodes = audience + 1
        spacing = _spacing_for(None, nodes)
        channel, hub = _deploy(nodes, spacing, seed)
        cell_reps = reps if reps is not None else max(2_000, 240_000 // audience)
        channel.vector_fanout_min = 1  # always the vector pass
        _time_fanouts(channel, hub, 5)
        scalar_channel, scalar_hub = _deploy(nodes, spacing, seed)
        scalar_channel.vector_fanout_min = nodes + 1
        _time_fanouts(scalar_channel, scalar_hub, 5)
        (vector_wall, _), (scalar_wall, _) = _best_walls(
            [(channel, hub), (scalar_channel, scalar_hub)], cell_reps
        )

        if break_even is None and vector_wall < scalar_wall:
            break_even = audience
        rows.append(
            {
                "case": f"breakeven-{audience}h",
                "mode": "break-even",
                "mean_hearers": audience,
                "reps": cell_reps,
                "wall_s": round(vector_wall, 4),
                "events_per_s": round(cell_reps / vector_wall) if vector_wall > 0 else 0,
                "scalar_wall_s": round(scalar_wall, 4),
                "scalar_events_per_s": (
                    round(cell_reps / scalar_wall) if scalar_wall > 0 else 0
                ),
                "speedup": round(scalar_wall / vector_wall, 2) if vector_wall > 0 else 0.0,
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    return rows, break_even


def run_one(nodes: int, density: str, seed: int = 0, reps: int | None = None) -> dict:
    """One sweep cell, measured on the vector path and the forced-scalar path."""
    spacing = _spacing_for(DENSITIES[density], nodes)
    channel, hub = _deploy(nodes, spacing, seed)
    audience = len(channel.hearers(hub))
    if reps is None:
        # Size each cell to a comparable amount of per-receiver work.
        reps = max(60, 240_000 // max(1, audience))
    _time_fanouts(channel, hub, 5)  # warm the link cache and hearer slots
    scalar_channel, scalar_hub = _deploy(nodes, spacing, seed)
    scalar_channel.vector_fanout_min = nodes + 1  # unreachable: scalar always
    _time_fanouts(scalar_channel, scalar_hub, 5)
    (vector_wall, receptions), (scalar_wall, _) = _best_walls(
        [(channel, hub), (scalar_channel, scalar_hub)], reps
    )

    return {
        "case": f"{nodes}n-{density}",
        "nodes": nodes,
        "density": density,
        "mean_hearers": audience,
        "reps": reps,
        "receptions": receptions,
        "wall_s": round(vector_wall, 4),
        "events_per_s": round(reps / vector_wall) if vector_wall > 0 else 0,
        "scalar_wall_s": round(scalar_wall, 4),
        "scalar_events_per_s": round(reps / scalar_wall) if scalar_wall > 0 else 0,
        "speedup": round(scalar_wall / vector_wall, 2) if vector_wall > 0 else 0.0,
        "peak_rss_kb": peak_rss_kb(),
    }


def run_fanout_bench(
    json_path: str | None = "BENCH_fanout.json",
    *,
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    seed: int = 0,
) -> list[Table]:
    """The nodes × density fan-out sweep and the break-even audience
    search; writes ``BENCH_fanout.json``."""
    fanout_rows = [
        run_one(nodes, density, seed=seed)
        for nodes in node_counts
        for density in DENSITIES
    ]
    breakeven_rows, break_even = run_break_even(seed=seed)
    rows = fanout_rows + breakeven_rows
    table = Table(
        "fanout",
        "delivery fan-out micro-benchmark (pure end_transmission throughput)",
        ["case", "hearers", "fanouts/s", "scalar f/s", "speedup", "receptions"],
    )
    for row in fanout_rows:
        table.add_row(
            row["case"],
            row["mean_hearers"],
            row["events_per_s"],
            row["scalar_events_per_s"],
            row["speedup"],
            row["receptions"],
        )
    for row in breakeven_rows:
        table.add_row(
            row["case"],
            row["mean_hearers"],
            row["events_per_s"],
            row["scalar_events_per_s"],
            row["speedup"],
            "-",
        )
    table.add_note(
        "fanouts/s = default (vectorized) path; scalar f/s = the same cell "
        "with vector_fanout_min forced unreachable; both decide identical "
        "deliveries from the same RNG stream"
    )
    if break_even is not None:
        table.add_note(
            f"vector fan-out break-even: {break_even} hearers (smallest "
            "sampled audience where the vector pass beats the scalar loop; "
            "backs the committed VECTOR_FANOUT_MIN)"
        )
    write_artifact(table, json_path, rows, seed=seed, fanout_break_even=break_even)
    return [table]
