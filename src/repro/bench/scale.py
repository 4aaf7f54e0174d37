"""Scale benchmark: topology × node-count sweep under a fire-tracking load.

Beyond the paper: its evaluation tops out at 25 motes on one tabletop.  This
sweep deploys the same middleware over hundreds to thousands of nodes on
different topology generators, runs the Section 5 fire-detector flood (clone
to every neighbor, gossip repair, periodic sensing) on top of the regular
beacon traffic, and reports wall time, simulated events/sec, and frames/sec.
Each cell is the ``flood`` scenario over a generated topology spec, run
through ``repro.run`` like every other scenario.
It exists to keep the radio channel honest: delivery and carrier sense are
O(degree) via the cached in-range index, so events/sec should hold roughly
steady as the deployment grows instead of collapsing O(N²).

Deployments are *spaced out* (tens of meters between grid units) so the
channel has spatial reuse — a 400-node tabletop would just be one saturated
collision domain, which is physics, not a benchmark.
"""

from __future__ import annotations

from repro.api import run
from repro.bench.reporting import Table, peak_rss_kb, write_artifact

DEFAULT_NODE_COUNTS = (25, 100, 400)
DEFAULT_TOPOLOGIES = ("grid", "random", "clustered")
TOPOLOGY_KINDS = ("grid", "line", "random", "clustered", "dense")
DEFAULT_DURATION_S = 60.0

#: Physical spacing per topology kind, chosen so one hop is comfortably
#: within the MICA2's 100 m range while non-neighbors mostly are not.
#: ``dense`` is the exception on purpose: a grid packed tight enough
#: (~22 m) that every transmitter reaches ~60 hearers, the wide-audience
#: delivery regime (``--topologies dense --nodes 1000``).
_SPACING_M = {
    "grid": 60.0,
    "line": 60.0,
    "random": 45.0,
    "clustered": 40.0,
    "dense": 22.0,
}


def _grid_dims(count: int) -> tuple[int, int]:
    """The most-square factor pair of ``count`` — exact unless ``count`` is
    prime-ish, where a 1×N strip would distort degree; then the nearest
    near-square rectangle (possibly a few nodes short) wins."""
    width = max(1, int(count ** 0.5))
    while width > 1 and count % width:
        width -= 1
    height = count // width
    if height > 4 * width:  # degenerate strip: prefer shape over exactness
        side = max(1, round(count ** 0.5))
        return (side, max(1, round(count / side)))
    return (width, height)


def topology_spec(kind: str, count: int, seed: int) -> dict:
    """A topology spec of the requested kind with ``count`` nodes, or as close
    as the generator's shape allows; the sweep reports the actual node count."""
    if kind in ("grid", "dense"):
        width, height = _grid_dims(count)
        return {"kind": "grid", "width": width, "height": height}
    if kind == "line":
        return {"kind": "line", "length": count}
    if kind == "random":
        return {"kind": "random", "count": count, "seed": seed}
    if kind == "clustered":
        clusters = max(1, round(count / 25))
        return {
            "kind": "clustered",
            "clusters": clusters,
            "cluster_size": max(1, count // clusters),
            "seed": seed,
        }
    raise ValueError(
        f"unknown topology kind for the scale sweep: {kind!r} "
        f"(expected one of {', '.join(TOPOLOGY_KINDS)})"
    )


def run_one(
    kind: str, count: int, seed: int = 0, duration_s: float = DEFAULT_DURATION_S
) -> dict:
    """One cell: the flood scenario over a ``kind`` field of ``count`` nodes.

    The flood starts at the best-connected node (the workload's hub): a
    corner gateway on a sparse random field can starve the clone wave and
    measure silence instead of load.
    """
    result = run(
        {
            "name": f"scale-{kind}-{count}",
            "topology": topology_spec(kind, count, seed),
            "workload": {"kind": "flood"},
            "duration_s": duration_s,
            "seed": seed,
            "spacing_m": _SPACING_M[kind],
        }
    )
    # peak_rss_kb is the process-wide high-water mark at row end (monotonic
    # within a sweep): a footprint blow-up at any node count shows in its row.
    return {"topology": kind, **result.as_row(), "peak_rss_kb": peak_rss_kb()}


def run_scale(
    node_counts=DEFAULT_NODE_COUNTS,
    topologies=DEFAULT_TOPOLOGIES,
    seed: int = 0,
    duration_s: float = DEFAULT_DURATION_S,
    json_path: str | None = "BENCH_scale.json",
) -> Table:
    """The full sweep; also writes ``BENCH_scale.json`` unless disabled."""
    table = Table(
        "scale",
        "topology x node-count sweep (fire-detector flood workload)",
        [
            "topology",
            "nodes",
            "wall s",
            "events",
            "events/s",
            "frames",
            "frames/s",
            "coverage",
            "peak KB",
        ],
    )
    rows = []
    shortfalls = []
    for kind in topologies:
        for count in node_counts:
            result = run_one(kind, count, seed=seed, duration_s=duration_s)
            rows.append(result)
            if result["nodes"] != count:
                shortfalls.append(f"{kind}@{count}→{result['nodes']}")
            table.add_row(
                result["topology"],
                result["nodes"],
                result["wall_s"],
                result["events"],
                result["events_per_s"],
                result["frames"],
                result["frames_per_s"],
                result["coverage"],
                result["peak_rss_kb"],
            )
    table.add_note(
        f"{duration_s:.0f} simulated seconds per cell; beacons on; "
        "channel delivery is O(degree) via the cached in-range index"
    )
    if shortfalls:
        table.add_note(
            "generator shape forced node counts: " + ", ".join(shortfalls)
        )
    write_artifact(table, json_path, rows, seed=seed, duration_s=duration_s)
    return table
