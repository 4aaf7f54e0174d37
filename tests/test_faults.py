"""Fault-injection campaigns and the self-healing sharded runtime.

Three load-bearing contracts:

* **Fault-free parity** — a scenario carrying an empty ``faults`` key (or
  none) is bit-identical to one built before the faults subsystem existed:
  installing nothing costs nothing.
* **Deterministic replay** — a fixed-seed campaign produces identical
  counters every run, inline or forked, because all fault randomness comes
  from the seed-derived ``"faults"`` stream.
* **Recovery** — a sharded run that loses a worker to SIGKILL is healed by
  re-executing it from t=0 against the parent's message log, and finishes
  with counters bit-equal to an undisturbed run.  Only
  ``RunResult.supervision`` records that anything happened.  A hung worker
  becomes a bounded-time error, never a deadlock.

Window layering is pinned separately: overlapping link/noise windows stack
per-pair layers (effective PRR = the minimum), a window expiring never
removes a pair another live window still claims, and overlapping corrupt
windows each get an independent draw per frame.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.errors import NetworkError
from repro.faults import FaultPlan, install_faults
from repro.scenarios.spec import Scenario
from repro.shard.runner import ShardedRunner, TIMING_KEYS

from tests.util import corridor, run_agent

BASE_SPEC = {
    "name": "fault-field",
    "topology": {"kind": "grid", "width": 8, "height": 3},
    "workload": {"kind": "flood"},
    "duration_s": 2.0,
    "seed": 0,
    "spacing_m": 60.0,
}

CAMPAIGN = {
    "events": [
        {
            "kind": "link",
            "at_s": 0.2,
            "links": [[[1, 1], [2, 1]]],
            "prr": 0.0,
            "duration_s": 1.0,
            "symmetric": True,
        },
        {"kind": "noise", "at_s": 0.5, "nodes": [[4, 2]], "prr": 0.3, "duration_s": 0.5},
        {"kind": "crash", "at_s": 0.8, "nodes": [[6, 3]], "reboot_s": 0.5},
        {"kind": "corrupt", "at_s": 0.1, "probability": 0.2, "duration_s": 1.5},
    ]
}


def _counters(result):
    return {k: v for k, v in result.counters.items() if k not in TIMING_KEYS}


# ---------------------------------------------------------------------------
# plan parsing and validation


class TestFaultPlan:
    def test_empty_forms(self):
        assert FaultPlan.from_spec(None).empty
        assert FaultPlan.from_spec({"events": []}).empty
        assert FaultPlan.from_spec([]).empty

    def test_round_trip(self):
        plan = FaultPlan.from_spec(CAMPAIGN)
        assert FaultPlan.from_spec(plan.to_spec()).to_spec() == plan.to_spec()

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetworkError, match="kind"):
            FaultPlan.from_spec({"events": [{"kind": "meteor", "at_s": 1.0}]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(NetworkError, match="keys"):
            FaultPlan.from_spec(
                {"events": [{"kind": "crash", "at_s": 1.0, "nodes": [[1, 1]], "oops": 1}]}
            )

    def test_prr_out_of_range_rejected(self):
        with pytest.raises(NetworkError, match="prr"):
            FaultPlan.from_spec(
                {
                    "events": [
                        {
                            "kind": "link",
                            "at_s": 0.0,
                            "links": [[[1, 1], [2, 1]]],
                            "prr": 1.5,
                        }
                    ]
                }
            )

    def test_unknown_node_rejected_at_build(self):
        spec = dict(
            BASE_SPEC,
            faults={
                "events": [{"kind": "crash", "at_s": 1.0, "nodes": [[99, 99]]}]
            },
        )
        with pytest.raises(NetworkError, match="unknown nodes"):
            Scenario.from_spec(spec).build()

    def test_process_events_rejected_unsharded(self):
        spec = dict(
            BASE_SPEC,
            faults={"events": [{"kind": "worker_kill", "at_s": 1.0, "shard": 0}]},
        )
        with pytest.raises(NetworkError, match="sharded"):
            Scenario.from_spec(spec).build()

    def test_worker_shard_out_of_range_rejected(self):
        spec = dict(
            BASE_SPEC,
            shards=2,
            faults={"events": [{"kind": "worker_kill", "at_s": 1.0, "shard": 7}]},
        )
        with pytest.raises(NetworkError, match="shard"):
            ShardedRunner(Scenario.from_spec(spec))

    def test_fraction_noise_rejected_sharded(self):
        spec = dict(
            BASE_SPEC,
            shards=2,
            faults={
                "events": [
                    {"kind": "noise", "at_s": 1.0, "fraction": 0.5, "prr": 0.2}
                ]
            },
        )
        with pytest.raises(NetworkError, match="fraction"):
            ShardedRunner(Scenario.from_spec(spec))


# ---------------------------------------------------------------------------
# the fault-free and determinism contracts


class TestDeterminism:
    def test_fault_free_run_is_bit_identical(self):
        """The faults layer installed-but-empty must change nothing at all."""
        plain = repro.run(dict(BASE_SPEC))
        with_key = repro.run(dict(BASE_SPEC, faults={"events": []}))
        assert plain.counters == with_key.counters

    def test_empty_plan_installs_nothing(self):
        deployed = Scenario.from_spec(dict(BASE_SPEC, faults={"events": []})).build()
        assert deployed.injector is None

    def test_campaign_replays_bit_identically(self):
        first = repro.run(dict(BASE_SPEC, faults=CAMPAIGN))
        second = repro.run(dict(BASE_SPEC, faults=CAMPAIGN))
        assert first.counters == second.counters

    def test_campaign_actually_perturbs(self):
        plain = repro.run(dict(BASE_SPEC))
        faulted = repro.run(dict(BASE_SPEC, faults=CAMPAIGN))
        assert plain.counters != faulted.counters
        assert faulted.counters["fault_events"] > 0


# ---------------------------------------------------------------------------
# node-level fault semantics (driven directly over a grid SensorNetwork)


class TestLinkFaults:
    def test_blackout_window_blocks_then_heals(self):
        net = corridor(3)
        plan = FaultPlan.from_spec(
            {
                "events": [
                    {
                        "kind": "link",
                        "at_s": 0.0,
                        "links": [[[1, 1], [2, 1]]],
                        "prr": 0.0,
                        "duration_s": 5.0,
                        "symmetric": True,
                    }
                ]
            }
        )
        injector = install_faults(net, plan)
        agent = run_agent(net, "pushloc 3 1\nsmove\nwait", at=(1, 1), timeout_s=4.0)
        assert agent.condition == 0  # hop failed across the dead window
        net.run(5.0)  # past the window end: overrides removed
        assert not net.channel.prr_overrides
        run_agent(net, "pushloc 3 1\nsmove\nwait", at=(1, 1), timeout_s=30.0)
        net.run(5.0)
        assert any(a.state.name != "DEAD" for a in net.agents_at((3, 1)))
        assert injector.fault_link_windows == 1

    def test_noise_burst_covers_every_transmitter(self):
        net = corridor(3)
        plan = FaultPlan.from_spec(
            {
                "events": [
                    {
                        "kind": "noise",
                        "at_s": 0.0,
                        "nodes": [[2, 1]],
                        "prr": 0.0,
                        "duration_s": 2.0,
                    }
                ]
            }
        )
        install_faults(net, plan)
        net.run(0.1)
        from repro.location import Location

        victim = net.nodes[Location(2, 1)].mote.id
        pairs = set(net.channel.prr_overrides)
        senders = {pair[0] for pair in pairs}
        assert all(pair[1] == victim for pair in pairs)
        assert len(senders) == len(net.channel.radios) - 1


class TestOverlappingWindows:
    """Windows compose as layers; expiry peels only the expiring layer."""

    def _pair(self, net, src, dst):
        from repro.location import Location

        return (
            net.nodes[Location(*src)].mote.id,
            net.nodes[Location(*dst)].mote.id,
        )

    def test_stacked_link_windows_compose_and_unwind(self):
        net = corridor(3)
        injector = install_faults(
            net,
            FaultPlan.from_spec(
                {
                    "events": [
                        {
                            "kind": "link",
                            "at_s": 0.0,
                            "links": [[[1, 1], [2, 1]]],
                            "prr": 0.5,
                            "duration_s": 4.0,
                        },
                        {
                            "kind": "link",
                            "at_s": 1.0,
                            "links": [[[1, 1], [2, 1]]],
                            "prr": 0.1,
                            "duration_s": 1.0,
                        },
                    ]
                }
            ),
        )
        pair = self._pair(net, (1, 1), (2, 1))
        net.run(0.5)
        assert net.channel.prr_overrides[pair] == 0.5
        net.run(1.0)  # t=1.5: both windows live — innermost (min) wins
        assert net.channel.prr_overrides[pair] == 0.1
        net.run(1.0)  # t=2.5: inner expired — the outer layer must survive
        assert net.channel.prr_overrides[pair] == 0.5
        net.run(2.0)  # t=4.5: both expired — nothing may linger
        assert net.channel.prr_overrides == {}
        assert injector.fault_link_windows == 2

    def test_noise_burst_layers_over_active_link_window(self):
        """A noise window opening on a pair an active link window already
        degrades must not clobber it — and closing must restore it."""
        net = corridor(3)
        install_faults(
            net,
            FaultPlan.from_spec(
                {
                    "events": [
                        {
                            "kind": "link",
                            "at_s": 0.0,
                            "links": [[[1, 1], [2, 1]]],
                            "prr": 0.0,
                            "duration_s": 3.0,
                        },
                        {
                            "kind": "noise",
                            "at_s": 1.0,
                            "nodes": [[2, 1]],
                            "prr": 0.4,
                            "duration_s": 1.0,
                        },
                    ]
                }
            ),
        )
        pair = self._pair(net, (1, 1), (2, 1))
        other = self._pair(net, (3, 1), (2, 1))
        net.run(1.5)  # both live: link's 0.0 is the inner layer on the pair
        assert net.channel.prr_overrides[pair] == 0.0
        assert net.channel.prr_overrides[other] == 0.4
        net.run(1.0)  # t=2.5: noise closed — the link blackout must survive
        assert net.channel.prr_overrides[pair] == 0.0
        assert other not in net.channel.prr_overrides
        net.run(1.0)  # t=3.5: link closed too
        assert net.channel.prr_overrides == {}

    def test_link_window_closing_restores_noise_layer(self):
        """The converse: a link window expiring on a pair a longer noise
        window still claims must fall back to the noise PRR, not delete."""
        net = corridor(3)
        install_faults(
            net,
            FaultPlan.from_spec(
                {
                    "events": [
                        {
                            "kind": "noise",
                            "at_s": 0.0,
                            "nodes": [[2, 1]],
                            "prr": 0.4,
                            "duration_s": 3.0,
                        },
                        {
                            "kind": "link",
                            "at_s": 1.0,
                            "links": [[[1, 1], [2, 1]]],
                            "prr": 0.0,
                            "duration_s": 1.0,
                        },
                    ]
                }
            ),
        )
        pair = self._pair(net, (1, 1), (2, 1))
        net.run(1.5)
        assert net.channel.prr_overrides[pair] == 0.0
        net.run(1.0)  # t=2.5: link closed — noise layer must be back
        assert net.channel.prr_overrides[pair] == 0.4
        net.run(1.0)  # t=3.5: noise closed
        assert net.channel.prr_overrides == {}

    def test_overlapping_corrupt_windows_draw_independently(self):
        """A zero-probability window in front must not shadow a certain one
        behind it: each spanning window gets its own draw, first hit wins."""
        net = corridor(3)
        injector = install_faults(
            net,
            FaultPlan.from_spec(
                {
                    "events": [
                        {"kind": "corrupt", "at_s": 0.0, "probability": 0.0},
                        {"kind": "corrupt", "at_s": 0.0, "probability": 1.0},
                    ]
                }
            ),
        )
        run_agent(net, "pushloc 2 1\nsmove\nwait", at=(1, 1), timeout_s=4.0)
        channel = net.channel
        assert channel.corrupted_frames > 0
        # The certain window corrupts every frame, and each frame is counted
        # exactly once even though two windows span it.
        assert channel.corrupted_frames == channel.frames_transmitted
        assert injector.fault_frames_corrupted == channel.frames_transmitted


class TestCrashFaults:
    def test_volatile_crash_wipes_agents_and_tuples(self):
        net = corridor(2)
        run_agent(net, "pushc 7\npushc 1\nout\nwait", at=(2, 1), timeout_s=5.0)
        assert net.tuples_at((2, 1))
        assert net.agents_at((2, 1))
        plan = FaultPlan.from_spec(
            {"events": [{"kind": "crash", "at_s": 6.0, "nodes": [[2, 1]], "reboot_s": 1.0}]}
        )
        injector = install_faults(net, plan)
        net.run(7.0)  # crash at 6 s fires; reboot at 7 s may not have yet
        assert not net.tuples_at((2, 1))
        assert all(a.state.name == "DEAD" for a in net.agents_at((2, 1)))
        assert injector.fault_crashes == 1
        assert injector.fault_agents_lost == 1
        net.run(1.5)
        assert injector.fault_reboots == 1
        assert net.node_up((2, 1))

    def test_non_volatile_crash_preserves_tuple_space(self):
        net = corridor(2)
        run_agent(net, "pushc 7\npushc 1\nout\nhalt", at=(2, 1), timeout_s=5.0)
        assert net.tuples_at((2, 1))
        plan = FaultPlan.from_spec(
            {
                "events": [
                    {
                        "kind": "crash",
                        "at_s": 6.0,
                        "nodes": [[2, 1]],
                        "reboot_s": 1.0,
                        "volatile": False,
                    }
                ]
            }
        )
        injector = install_faults(net, plan)
        net.run(8.0)
        assert net.tuples_at((2, 1))  # persistent-store semantics
        assert injector.fault_agents_lost == 0


class TestFrameCorruption:
    def test_corruption_jams_without_delivering(self):
        net = corridor(3)
        plan = FaultPlan.from_spec(
            {"events": [{"kind": "corrupt", "at_s": 0.0, "probability": 1.0}]}
        )
        install_faults(net, plan)
        agent = run_agent(net, "pushloc 2 1\nsmove\nwait", at=(1, 1), timeout_s=4.0)
        channel = net.channel
        assert channel.corrupted_frames > 0
        assert channel.corrupted_frames == channel.frames_transmitted
        assert sum(r.frames_received for r in channel.radios) == 0
        assert agent.condition == 0  # every migration frame failed CRC
        # Custody rule survives total corruption: the agent still exists.
        assert len(net.agents_at((1, 1))) == 1

    def test_corruption_window_draws_are_seeded(self):
        results = []
        campaign = {
            "events": [
                {"kind": "corrupt", "at_s": 0.1, "probability": 0.5, "duration_s": 1.0}
            ]
        }
        for _ in range(2):
            row = repro.run(dict(BASE_SPEC, faults=campaign))
            results.append(
                (row.counters["fault_frames_corrupted"], row.counters["frames"])
            )
        assert results[0] == results[1]
        assert results[0][0] > 0


# ---------------------------------------------------------------------------
# correlated crashes and generated campaigns


class TestCorrelatedCrash:
    RECT = {
        "events": [
            {
                "kind": "correlated_crash",
                "at_s": 0.5,
                "rect": [[2, 1], [5, 3]],
                "reboot_s": 0.4,
                "stagger_s": 0.3,
            }
        ]
    }

    def test_parse_validates_corners_and_stagger(self):
        with pytest.raises(NetworkError, match="min, max"):
            FaultPlan.from_spec(
                {
                    "events": [
                        {"kind": "correlated_crash", "at_s": 0.0, "rect": [[5, 3], [2, 1]]}
                    ]
                }
            )
        with pytest.raises(NetworkError, match="stagger_s requires reboot_s"):
            FaultPlan.from_spec(
                {
                    "events": [
                        {
                            "kind": "correlated_crash",
                            "at_s": 0.0,
                            "rect": [[1, 1], [2, 2]],
                            "stagger_s": 0.5,
                        }
                    ]
                }
            )

    def test_resolve_expands_rect_into_staggered_crashes(self):
        from repro.faults.plan import CrashFault
        from repro.topology import from_spec as topology_from_spec

        topology = topology_from_spec(BASE_SPEC["topology"])
        plan = FaultPlan.from_spec(self.RECT)
        resolved = plan.resolve(topology, seed=0)
        crashes = [e for e in resolved.events if isinstance(e, CrashFault)]
        assert len(crashes) == 4 * 3  # every mote in the inclusive rect
        assert {e.nodes[0] for e in crashes} == {
            (x, y) for x in range(2, 6) for y in range(1, 4)
        }
        for event in crashes:
            assert event.at_s == 0.5  # the crash itself is simultaneous
            assert 0.4 <= event.reboot_s <= 0.7  # reboot + uniform stagger
        # The stagger draws come from a plan-level seed stream, so the
        # expansion is identical on every call — and across every shard.
        again = plan.resolve(topology, seed=0)
        assert again.to_spec() == resolved.to_spec()
        assert plan.resolve(topology, seed=1).to_spec() != resolved.to_spec()

    def test_resolve_rejects_empty_rect(self):
        from repro.topology import from_spec as topology_from_spec

        topology = topology_from_spec(BASE_SPEC["topology"])
        plan = FaultPlan.from_spec(
            {
                "events": [
                    {"kind": "correlated_crash", "at_s": 0.5, "rect": [[50, 50], [60, 60]]}
                ]
            }
        )
        with pytest.raises(NetworkError, match="no deployed motes"):
            plan.resolve(topology, seed=0)

    def test_unresolved_plan_cannot_be_split(self):
        from repro.shard.partition import partition_topology
        from repro.topology import from_spec as topology_from_spec

        topology = topology_from_spec(BASE_SPEC["topology"])
        partition = partition_topology(topology, 2, spacing_m=60.0)
        with pytest.raises(NetworkError, match="resolved"):
            FaultPlan.from_spec(self.RECT).for_region(partition, 0)

    def test_correlated_campaign_runs_and_replays(self):
        first = repro.run(dict(BASE_SPEC, faults=self.RECT))
        second = repro.run(dict(BASE_SPEC, faults=self.RECT))
        assert first.counters == second.counters
        assert first.counters["fault_crashes"] == 12
        assert first.counters["fault_reboots"] == 12

    def test_correlated_campaign_inline_process_parity(self):
        spec = Scenario.from_spec(dict(BASE_SPEC, shards=2, faults=self.RECT))
        inline = ShardedRunner(spec, mode="inline").run()
        forked = ShardedRunner(spec).run()
        assert _counters(inline) == _counters(forked)
        assert forked.counters["fault_crashes"] == 12


class TestGeneratedCampaigns:
    SPEC = {
        "field": [[1, 1], [8, 3]],
        "duration_s": 2.0,
        "count": 5,
        "kinds": ["link", "noise", "crash", "corrupt", "correlated_crash"],
    }

    def test_generate_is_seed_deterministic(self):
        first = FaultPlan.generate(0, self.SPEC)
        assert FaultPlan.generate(0, self.SPEC).to_spec() == first.to_spec()
        assert FaultPlan.generate(1, self.SPEC).to_spec() != first.to_spec()
        assert len(first.events) == 5
        assert all(e.kind in self.SPEC["kinds"] for e in first.events)

    def test_generate_validates_spec(self):
        with pytest.raises(NetworkError, match="field"):
            FaultPlan.generate(0, {"duration_s": 2.0})
        with pytest.raises(NetworkError, match="kinds"):
            FaultPlan.generate(
                0, dict(self.SPEC, kinds=["link", "worker_kill"])
            )
        with pytest.raises(NetworkError, match="keys"):
            FaultPlan.generate(0, dict(self.SPEC, oops=1))

    def test_generated_campaign_is_runnable_and_shard_safe(self):
        """Generated events name explicit nodes inside the field, so the
        campaign passes sharded validation and runs with parity."""
        plan = FaultPlan.generate(3, self.SPEC)
        spec = Scenario.from_spec(
            dict(BASE_SPEC, shards=2, faults=plan.to_spec())
        )
        inline = ShardedRunner(spec, mode="inline").run()
        forked = ShardedRunner(spec).run()
        assert _counters(inline) == _counters(forked)
        assert forked.counters["fault_events"] > 0


# ---------------------------------------------------------------------------
# sharded campaigns: parity and self-healing


class TestShardedFaults:
    def test_node_faults_inline_process_parity(self):
        spec = Scenario.from_spec(dict(BASE_SPEC, shards=2, faults=CAMPAIGN))
        inline = ShardedRunner(spec, mode="inline").run()
        forked = ShardedRunner(spec).run()
        assert _counters(inline) == _counters(forked)
        assert forked.counters["fault_events"] > 0

    def test_sharded_equals_unsharded_fault_free_modes(self):
        """Faults key present but empty: the sharded paths stay untouched."""
        plain = ShardedRunner(Scenario.from_spec(dict(BASE_SPEC, shards=2))).run()
        keyed = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2, faults={"events": []}))
        ).run()
        assert _counters(plain) == _counters(keyed)


class TestSelfHealing:
    KILL = {"events": [{"kind": "worker_kill", "at_s": 1.0, "shard": 1}]}

    @pytest.mark.parametrize(
        "knob, value",
        [("restart_backoff_s", -1), ("hang_timeout_s", 0), ("max_restarts", -1)],
    )
    def test_bad_supervision_knob_is_rejected_up_front(self, knob, value):
        """A bad knob fails construction, not the run after a worker dies
        (or an undisturbed run, for a zero hang deadline)."""
        with pytest.raises(NetworkError, match=knob):
            ShardedRunner(Scenario.from_spec(dict(BASE_SPEC, shards=2)), **{knob: value})

    def test_killed_worker_recovers_bit_identically(self):
        """Re-execution from t=0 against the message log lands on the exact
        bytes of an undisturbed run."""
        undisturbed = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2))
        ).run()
        healed = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2, faults=self.KILL)),
            hang_timeout_s=30.0,
        ).run()
        assert _counters(healed) == _counters(undisturbed)
        assert healed.supervision["restarts"] == 1
        assert "SIGKILL" in healed.supervision["incidents"][0]
        recovery = healed.supervision["recoveries"][0]
        assert recovery["shard"] == 1
        assert recovery["recovery_s"] >= 0.0
        assert not undisturbed.supervision

    def test_restart_backoff_does_not_false_hang_neighbors(self):
        """Regression: the supervisor's blocking restart backoff used to age
        every other worker's hang deadline, so a backoff longer than
        ``hang_timeout_s`` misdiagnosed a healthy (seam-blocked) neighbor
        as hung.  Deadlines must measure worker silence, not supervisor
        sleep."""
        undisturbed = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2))
        ).run()
        healed = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2, faults=self.KILL)),
            hang_timeout_s=2.0,
            restart_backoff_s=2.5,
        ).run()
        assert _counters(healed) == _counters(undisturbed)
        assert healed.supervision["restarts"] == 1
        assert not undisturbed.supervision

    def test_long_replay_does_not_false_hang_neighbors(self):
        """Regression: while a replacement re-executes to a late crash point
        it sends no rounds, so its seam neighbor sits blocked and silent.
        The replacement's heartbeats must count as that neighbor's
        liveness, or a replay longer than ``hang_timeout_s`` (about 0.4 s
        here on a 2-core x86 box) is misdiagnosed as a hang."""
        from repro.bench.faults import fault_scenario

        spec = fault_scenario(seed=0, duration_s=60.0)
        kill = {"events": [{"kind": "worker_kill", "at_s": 48.0, "shard": 1}]}
        undisturbed = ShardedRunner(Scenario.from_spec(dict(spec, shards=2))).run()
        healed = ShardedRunner(
            Scenario.from_spec(dict(spec, shards=2, faults=kill)),
            hang_timeout_s=0.3,
        ).run()
        assert _counters(healed) == _counters(undisturbed)
        assert healed.supervision["restarts"] == 1
        assert "degraded" not in healed.supervision

    def test_supervisor_stall_does_not_false_hang_workers(self, monkeypatch):
        """Regression: the hang deadline counted the supervisor's own stalls
        (a slow drain, a GC pause) as worker silence.  The supervisor stalls
        0.6 s, twice the deadline, while shard *peer* sits blocked on a round
        only this drain can forward; the run must finish undisturbed."""
        import repro.shard.runner as runner_module
        from repro.bench.faults import fault_scenario

        drain = runner_module._Supervisor._drain
        stalls = []

        def stalling_drain(supervisor, handle):
            peer = 1 - handle.index
            answered = len(supervisor.sent_log[(handle.index, peer)])
            # The peer posted a round this shard has not answered yet, so it
            # sends nothing until this drain forwards the answer.
            posted = len(supervisor.sent_log[(peer, handle.index)])
            if not stalls and answered >= 50 and posted > answered:
                stalls.append(handle.index)
                time.sleep(0.6)
            drain(supervisor, handle)

        monkeypatch.setattr(runner_module._Supervisor, "_drain", stalling_drain)
        spec = fault_scenario(seed=0, duration_s=20.0)
        result = ShardedRunner(
            Scenario.from_spec(dict(spec, shards=2)), hang_timeout_s=0.3
        ).run()
        assert stalls
        assert result.supervision == {}

    def test_restart_budget_exhausted_degrades_to_inline(self):
        undisturbed = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2))
        ).run()
        degraded = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2, faults=self.KILL)),
            max_restarts=0,
            hang_timeout_s=30.0,
        ).run()
        assert _counters(degraded) == _counters(undisturbed)
        assert degraded.supervision["degraded"] is True
        assert "inline" in degraded.supervision["reason"]

    def test_hung_worker_raises_bounded_network_error(self):
        hang = {
            "events": [
                {"kind": "worker_hang", "at_s": 1.0, "shard": 0, "hang_s": 600.0}
            ]
        }
        runner = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2, faults=hang)),
            hang_timeout_s=2.0,
        )
        started = time.monotonic()
        with pytest.raises(NetworkError, match="no heartbeat"):
            runner.run()
        assert time.monotonic() - started < 30.0
        # Satellite invariant: the supervisor reaped every worker it forked.
        import multiprocessing

        assert not [
            p for p in multiprocessing.active_children() if p.name.startswith("shard-")
        ]

    def test_inline_mode_ignores_process_chaos(self):
        """The inline driver is the parity reference: worker chaos is a
        property of the forked runtime, not of the simulated field."""
        plain = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2)), mode="inline"
        ).run()
        chaotic = ShardedRunner(
            Scenario.from_spec(dict(BASE_SPEC, shards=2, faults=self.KILL)),
            mode="inline",
        ).run()
        assert _counters(plain) == _counters(chaotic)


# ---------------------------------------------------------------------------
# the bench battery (slow: drives every case end to end)

#: Every deterministic counter of the battery's rows at seed 0 over 10 sim-s,
#: as ``results/BENCH_faults.json`` records them.
_BATTERY_KEYS = (
    "events",
    "frames",
    "frames_received",
    "fault_events",
    "fault_crashes",
    "fault_reboots",
    "fault_link_windows",
    "fault_frames_corrupted",
    "fault_agents_lost",
    "delivery_ratio",
)
_BATTERY_ROWS = {
    # case: events, frames, frames_received, the six fault_* counters in
    # _BATTERY_KEYS order, delivery_ratio
    "baseline": (2704, 528, 2769, 0, 0, 0, 0, 0, 0, 1.0),
    "link-blackout": (2236, 438, 2359, 2, 0, 0, 1, 0, 0, 0.852),
    "noise-burst": (1298, 246, 1398, 2, 0, 0, 1, 0, 0, 0.505),
    "mote-crash": (1096, 209, 1196, 4, 2, 2, 0, 0, 1, 0.432),
    "frame-corruption": (1377, 262, 1497, 0, 0, 0, 0, 17, 0, 0.541),
    "correlated-outage": (2725, 498, 2723, 4, 2, 2, 0, 0, 0, 0.983),
    "shard-selfheal-w2": (1319, 249, 1521, 0, 0, 0, 0, 0, 0, 0.549),
    "shard-crash-replay-w2": (1319, 249, 1521, 0, 0, 0, 0, 0, 0, 0.549),
}
#: Per-case extras.  mote-crash's ``recovery_s`` is simulated time; the
#: worker-crash rows' ``recovery_s`` is wall time, so it is not pinned.
_BATTERY_EXTRAS = {
    "mote-crash": {"recovery_s": 4.0},
    "shard-selfheal-w2": {"restarts": 1, "bitequal": 1},
    "shard-crash-replay-w2": {"restarts": 1, "bitequal": 1},
}
_BATTERY_WALL_KEYS = {"wall_s", "events_per_s", "peak_rss_kb"}


@pytest.mark.slow
def test_fault_battery_end_to_end(tmp_path):
    import json

    from repro.bench.faults import run_fault_bench

    json_path = tmp_path / "BENCH_faults.json"
    table = run_fault_bench(seed=0, duration_s=10.0, json_path=str(json_path))
    rendered = table.render()
    assert "baseline" in rendered and "shard-selfheal" in rendered
    rows = {row["case"]: row for row in json.loads(json_path.read_text())["rows"]}
    assert list(rows) == list(_BATTERY_ROWS)
    for case, values in _BATTERY_ROWS.items():
        row = rows[case]
        wall_keys = _BATTERY_WALL_KEYS | ({"recovery_s"} if "restarts" in row else set())
        pinned = {key: value for key, value in row.items() if key not in wall_keys}
        assert pinned == {
            "case": case,
            "nodes": 40,
            "sim_s": 10.0,
            **dict(zip(_BATTERY_KEYS, values)),
            **_BATTERY_EXTRAS.get(case, {}),
        }
