"""Built-in scenario specs: the standard battery, runnable by name.

Plain dicts on purpose — each is exactly what you could put in a JSON file
and hand to ``repro.run`` or ``Scenario.from_spec``;
``repro.run(name).as_row()`` gives a builtin's flat row.  Their fixed-seed
counters are pinned in ``tests/test_goldens.py``.

* **static-flood** — the 100-node grid flood cell verbatim (60 m spacing,
  fire-detector flood, no dynamics): the golden baseline that dynamic runs
  are compared against.
* **mobile-tracker** — a quarter of an 8×8 grid wanders (random waypoint)
  while a chaser agent pursues a moving intruder through the samplers.
* **churn-habitat** — habitat monitors on a clustered field where nodes die
  and recover under exponential lifetimes (~20% of the field dark at once).
* **mixed-tenant** — habitat monitors and a fire-detection service share a
  7×7 grid under a staggered 75% radio duty cycle; a fire ignites mid-run.
* **mobile-flood-400** — the big one: a 400-node random field, one node in
  ten mobile, under the flood.  Exists to keep the channel honest at scale:
  the hearer index must absorb thousands of moves incrementally
  (``index_rebuilds`` stays 0) while delivery stays O(degree).
* **partition-heal** / **partition-heal-frozen** — the adaptivity ablation:
  geo-routed courier traffic from the far corner to the gateway while the
  two far rows wander (random waypoint) and a mid-field relay crashes and
  recovers.  The two specs differ in exactly one key, ``adaptive`` — live
  acquaintance expiry, localization, and wake re-announcements on vs. the
  deploy-time snapshot — so the ``delivery_ratio`` gap between the rows *is*
  the measured value of the adaptive neighborhood subsystem.
"""

from __future__ import annotations


def _partition_heal(adaptive: bool) -> dict:
    """The partition-heal spec, parameterized only by adaptivity."""
    mobile_rows = [[x, y] for y in (5, 6) for x in range(1, 7)]
    return {
        "name": "partition-heal" if adaptive else "partition-heal-frozen",
        "topology": {"kind": "grid", "width": 6, "height": 6},
        "workload": {"kind": "courier", "period_s": 2.0, "sources": 3},
        "dynamics": {
            "mobility": {
                "model": "random_waypoint",
                "speed": [1.5, 4.0],
                "pause_s": 2.0,
            },
            "mobile": mobile_rows,
            "churn": {
                "model": "schedule",
                "events": [[20.0, "fail", [3, 3]], [50.0, "recover", [3, 3]]],
            },
            "tick_s": 1.0,
        },
        "duration_s": 90.0,
        "seed": 0,
        "spacing_m": 60.0,
        "adaptive": adaptive,
        "beacon_period_s": 2.0,
    }


BUILTIN_SCENARIOS: dict[str, dict] = {
    "static-flood": {
        "name": "static-flood",
        "topology": {"kind": "grid", "width": 10, "height": 10},
        "workload": {"kind": "flood"},
        "duration_s": 60.0,
        "seed": 0,
        "spacing_m": 60.0,
    },
    "mobile-tracker": {
        "name": "mobile-tracker",
        "topology": {"kind": "grid", "width": 8, "height": 8},
        "workload": {"kind": "tracker"},
        "dynamics": {
            "mobility": {"model": "random_waypoint", "speed": [0.5, 2.0], "pause_s": 2.0},
            "mobile_fraction": 0.25,
            "tick_s": 1.0,
        },
        "duration_s": 60.0,
        "seed": 0,
        "spacing_m": 60.0,
    },
    "churn-habitat": {
        "name": "churn-habitat",
        "topology": {"kind": "clustered", "clusters": 4, "cluster_size": 25},
        "workload": {"kind": "habitat"},
        "dynamics": {
            "churn": {"model": "lifetimes", "mtbf_s": 40.0, "mttr_s": 10.0},
            "tick_s": 1.0,
        },
        "duration_s": 60.0,
        "seed": 0,
        "spacing_m": 40.0,
    },
    "mixed-tenant": {
        "name": "mixed-tenant",
        "topology": {"kind": "grid", "width": 7, "height": 7},
        "workload": {"kind": "mixed", "ignite_s": 30.0},
        "dynamics": {
            "duty_cycle": {"period_s": 4.0, "on_fraction": 0.75},
            "tick_s": 0.5,
        },
        "duration_s": 60.0,
        "seed": 0,
        "spacing_m": 60.0,
    },
    "mobile-flood-400": {
        "name": "mobile-flood-400",
        "topology": {"kind": "random", "count": 400, "seed": 11},
        "workload": {"kind": "flood"},
        "dynamics": {
            "mobility": {"model": "random_waypoint", "speed": [0.5, 2.0], "pause_s": 2.0},
            "mobile_fraction": 0.1,
            "tick_s": 1.0,
        },
        "duration_s": 60.0,
        "seed": 11,
        "spacing_m": 45.0,
    },
    "partition-heal": _partition_heal(True),
    "partition-heal-frozen": _partition_heal(False),
    # --- sharded-runtime battery ----------------------------------------
    # sharded-ribbon: a long thin grid cut into 4 x-strips with *real* seams
    # — the flood must cross every boundary via ghost replay, so this is the
    # scenario that exercises the lookahead protocol hardest.
    "sharded-ribbon": {
        "name": "sharded-ribbon",
        "topology": {"kind": "grid", "width": 16, "height": 4},
        "workload": {"kind": "flood"},
        "duration_s": 8.0,
        "seed": 0,
        "spacing_m": 60.0,
        "shards": 4,
    },
    # sharded-clusters: dense habitat islands on a 2x2 center grid.  The
    # middle cut snaps into the inter-column corridor (wider than radio
    # range: ghost-free); the outer cuts bisect a cluster column, so the mix
    # covers both empty and busy seams.
    "sharded-clusters": {
        "name": "sharded-clusters",
        "topology": {
            "kind": "clustered",
            "clusters": 4,
            "cluster_size": 50,
            "cluster_spacing": 20,
            "spread": 2.0,
            "radius": 2.5,
            "seed": 7,
        },
        "workload": {"kind": "habitat"},
        "duration_s": 10.0,
        "seed": 7,
        "spacing_m": 25.0,
        "shards": 4,
    },
}
