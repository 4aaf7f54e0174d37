"""Scenario layer: spec parsing, workloads, static-parity goldens."""

import json

import pytest

import repro
from repro.apps import habitat_monitor
from repro.errors import NetworkError
from repro.scenarios import BUILTIN_SCENARIOS, Scenario, workload_from_spec
from repro.scenarios.workloads import (
    FloodWorkload,
    HabitatWorkload,
    MixedTenantWorkload,
    TrackerPerimeterWorkload,
    agent_census,
)
from tests.test_bench_harness import assert_retired

MINI_GRID = {"kind": "grid", "width": 4, "height": 4}


def mini(name, workload, dynamics=None, duration_s=5.0, **overrides):
    spec = {
        "name": name,
        "topology": dict(MINI_GRID),
        "workload": workload,
        "duration_s": duration_s,
        "spacing_m": 60.0,
    }
    if dynamics is not None:
        spec["dynamics"] = dynamics
    spec.update(overrides)
    return spec


class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = mini("rt", {"kind": "flood"}, {"mobility": {"model": "linear"}})
        scenario = Scenario.from_spec(spec)
        assert scenario.name == "rt"
        assert Scenario.from_spec(scenario.to_spec()).to_spec() == scenario.to_spec()

    def test_json_file_loads(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(mini("from-file", "flood")))
        scenario = Scenario.from_spec(str(path))
        assert scenario.name == "from-file"
        assert scenario.workload == "flood"

    def test_builtin_names_resolve(self):
        for name in BUILTIN_SCENARIOS:
            scenario = Scenario.from_spec(name)
            assert scenario.name == name

    def test_explicit_seed_overrides_spec_seed(self):
        # mobile-flood-400's spec pins seed 11; an explicit seed (even 0)
        # wins over it, and so does an explicit duration.
        assert BUILTIN_SCENARIOS["mobile-flood-400"]["seed"] == 11
        result = repro.run("mobile-flood-400", seed=0, duration_s=2.0)
        assert result.seed == 0
        assert result.counters["sim_s"] == 2.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(NetworkError):
            Scenario.from_spec(mini("bad", "flood", topologyy={"kind": "grid"}))
        with pytest.raises(NetworkError):
            Scenario.from_spec({"name": "no-topology"})
        with pytest.raises(NetworkError):
            Scenario.from_spec(str("/nonexistent/spec.json"))
        with pytest.raises(NetworkError, match="builtin"):  # typo'd builtin name
            Scenario.from_spec("mobile-traker")

    def test_workload_spec_validation(self):
        assert isinstance(workload_from_spec("flood"), FloodWorkload)
        assert isinstance(workload_from_spec({"kind": "tracker"}), TrackerPerimeterWorkload)
        assert isinstance(workload_from_spec({"kind": "habitat"}), HabitatWorkload)
        assert isinstance(workload_from_spec({"kind": "mixed"}), MixedTenantWorkload)
        with pytest.raises(NetworkError):
            workload_from_spec({"kind": "party"})
        with pytest.raises(NetworkError):
            workload_from_spec({"kind": "flood", "period": 3})


class TestStaticParity:
    """A scenario without dynamics must reproduce a plain deployment run
    bit-for-bit — the dynamics subsystem may not perturb static behaviour."""

    PARITY_SPEC = {
        "name": "parity",
        "topology": {"kind": "grid", "width": 5, "height": 5},
        "workload": {"kind": "flood"},
        "duration_s": 20.0,
        "seed": 0,
        "spacing_m": 60.0,
    }
    # Golden counters of the 5x5 flood cell at 60 m, run for 20 s.  If these
    # move, static behaviour changed.
    # GOLDEN_EVENTS was re-pinned (10558 -> 7745) for PR 5's run-slice
    # engine, which posts O(slices) instead of O(instructions) kernel
    # events; frames, drops, instructions, and coverage are the original
    # capture's, proving the delivery and CPU timelines did not move.
    GOLDEN_EVENTS = 7745
    GOLDEN_FRAMES = 1385
    GOLDEN_COVERAGE = 21
    GOLDEN_PRR_DROPS = 527
    GOLDEN_INSTRUCTIONS = 1819

    def test_static_scenario_matches_scale_run_one(self):
        # The former scale sweep's grid-25 cell, through the public entry point.
        row = repro.run(dict(self.PARITY_SPEC, name="scale-grid-25")).as_row()
        assert (row["scenario"], row["nodes"]) == ("scale-grid-25", 25)
        assert row["events"] == self.GOLDEN_EVENTS
        assert row["frames"] == self.GOLDEN_FRAMES
        assert row["coverage"] == self.GOLDEN_COVERAGE

    def test_static_scenario_matches_golden_counters(self):
        run = Scenario.from_spec(self.PARITY_SPEC).build()
        result = run.run()
        assert result["events"] == self.GOLDEN_EVENTS
        assert result["frames"] == self.GOLDEN_FRAMES
        assert result["coverage"] == self.GOLDEN_COVERAGE
        assert result["moves"] == 0
        assert result["index_rebuilds"] == 0
        # The cached delivery path and the run-slice engine must not move a single
        # loss draw or executed instruction on the committed baseline.
        net = run.net
        assert net.channel.prr_drops == self.GOLDEN_PRR_DROPS
        assert (
            sum(n.middleware.engine.instructions_executed for n in net.all_nodes())
            == self.GOLDEN_INSTRUCTIONS
        )

    def test_static_run_with_expiry_enabled_is_bit_identical(self):
        """PR 4's golden: beacon-driven expiry is *always* armed, and on a
        static, churn-free deployment it must be a perfect no-op — the same
        counters as the PR 3 baselines, with zero evictions, for the default
        ``k`` and a loose one alike."""
        for expiry_intervals in (3, 6):
            spec = dict(self.PARITY_SPEC)
            spec["expiry_intervals"] = expiry_intervals
            run = Scenario.from_spec(spec).build()
            result = run.run()
            assert result["events"] == self.GOLDEN_EVENTS, expiry_intervals
            assert result["frames"] == self.GOLDEN_FRAMES, expiry_intervals
            assert result["coverage"] == self.GOLDEN_COVERAGE, expiry_intervals
            for node in run.net.all_nodes():
                acquaintances = node.beacons.acquaintances
                assert acquaintances.expirations == 0  # nothing ever went stale
                assert acquaintances.timeout == expiry_intervals * node.beacons.period

    def test_dynamic_scenario_differs_from_static(self):
        static = repro.run(mini("s", "flood", duration_s=10.0)).as_row()
        mobile = repro.run(
            mini(
                "m",
                "flood",
                {"mobility": {"model": "random_waypoint", "speed": [2.0, 5.0]}},
                duration_s=10.0,
            )
        ).as_row()
        assert mobile["moves"] > 0
        assert (static["events"], static["frames"]) != (mobile["events"], mobile["frames"])


class TestWorkloads:
    def test_tracker_installs_samplers_and_chaser(self):
        run = Scenario.from_spec(mini("t", {"kind": "tracker"}, duration_s=3.0)).build()
        census = agent_census(run.net)
        assert census.get("smp", 0) == 16  # one sampler per node
        assert census.get("chs", 0) == 1
        result = run.run()
        assert result["coverage"] > 0  # samplers published readings
        assert result["samplers_alive"] > 0

    def test_habitat_monitors_every_node(self):
        result = repro.run(mini("h", {"kind": "habitat"}, duration_s=5.0)).as_row()
        assert result["monitors_alive"] == 16
        assert result["coverage"] > 0

    def test_mixed_tenant_shares_the_network(self):
        result = repro.run(
            mini("mx", {"kind": "mixed", "ignite_s": 10.0}, duration_s=30.0)
        ).as_row()
        assert result["monitors_alive"] + result["monitors_freed"] == 16
        assert result["coverage"] > 0  # the detector flood spread
        assert result["habitat_samples"] > 0
        assert result["fire_alerts"] > 0  # the fire was noticed

    def test_churny_habitat_keeps_running(self):
        result = repro.run(
            mini(
                "ch",
                {"kind": "habitat"},
                {"churn": {"model": "lifetimes", "mtbf_s": 5.0, "mttr_s": 2.0}},
                duration_s=20.0,
            )
        ).as_row()
        assert result["fails"] > 0
        assert result["coverage"] > 0


GRID_5X5 = {"kind": "grid", "width": 5, "height": 5}


class TestInstallAssemblesOnce:
    """An install assembles each program once, not once per mote: ``inject``
    reads only a program's code and name, so the motes share it."""

    @pytest.fixture
    def assembled(self, monkeypatch):
        import repro.apps.fire as fire_app
        import repro.apps.habitat as habitat_app
        import repro.apps.tracker as tracker_app
        from repro.agilla.assembler import assemble

        names = []

        def counting(source, name="agent"):
            names.append(name)
            return assemble(source, name=name)

        for module in (fire_app, habitat_app, tracker_app):
            monkeypatch.setattr(module, "assemble", counting)
        return names

    @pytest.mark.parametrize(
        "kind, programs",
        [("habitat", ["hab"]), ("tracker", ["smp", "chs"]), ("mixed", ["hab", "fdt"])],
    )
    def test_each_program_is_assembled_once(self, assembled, kind, programs):
        run = Scenario.from_spec(mini(kind, {"kind": kind}, topology=GRID_5X5)).build()
        assert assembled == programs
        assert len(run.net.topology) == 25

    def test_every_monitor_runs_the_habitat_program(self):
        run = Scenario.from_spec(mini("h", {"kind": "habitat"}, topology=GRID_5X5)).build()
        expected = habitat_monitor().code
        codes = [
            node.middleware.instruction_manager.code_of(agent.id)
            for node in run.net.grid_nodes()
            for agent in node.middleware.agents()
        ]
        assert len(codes) == 25
        assert all(code == expected for code in codes)


class TestScenarioBench:
    def test_cli_scenario_subcommand(self, tmp_path, capsys):
        argv = ["scenario", "--scenarios", "static-flood", "--out", str(tmp_path)]
        assert_retired(argv, tmp_path / "BENCH_scenarios.json", capsys)

    def test_cli_rejects_empty_scenario_list(self, tmp_path, capsys):
        argv = ["scenario", "--scenarios", " , ", "--out", str(tmp_path)]
        assert_retired(argv, tmp_path / "BENCH_scenarios.json", capsys)
