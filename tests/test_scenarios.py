"""Scenario layer: spec parsing, workloads, static-parity goldens, bench sweep."""

import json

import pytest

import repro
from repro.bench import scenarios as bench_scenarios
from repro.bench.cli import main as bench_main
from repro.errors import NetworkError
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    DEFAULT_SCENARIOS,
    Scenario,
    workload_from_spec,
)
from repro.scenarios.workloads import (
    FloodWorkload,
    HabitatWorkload,
    MixedTenantWorkload,
    TrackerPerimeterWorkload,
    agent_census,
)

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
        for name in DEFAULT_SCENARIOS:
            scenario = Scenario.from_spec(name)
            assert scenario.name == name
            assert name in BUILTIN_SCENARIOS

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
    # Golden counters from PR 1's scale sweep path (scale.run_one("grid", 25,
    # seed=0, duration_s=20)).  If these move, static behaviour changed.
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
        from repro.bench import scale

        row = scale.run_one("grid", 25, seed=0, duration_s=20.0)
        assert (row["topology"], row["nodes"]) == ("grid", 25)
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


class TestScenarioBench:
    def test_sweep_writes_json_and_never_rebuilds(self, tmp_path):
        json_path = str(tmp_path / "BENCH_scenarios.json")
        specs = [
            mini("mini-static", "flood"),
            mini(
                "mini-mobile",
                "flood",
                {"mobility": {"model": "random_waypoint", "speed": [1.0, 3.0]}},
            ),
            mini(
                "mini-churn",
                "habitat",
                {"churn": {"model": "lifetimes", "mtbf_s": 3.0, "mttr_s": 1.0}},
            ),
            mini("mini-mixed", {"kind": "mixed", "ignite_s": 2.0}),
        ]
        table = bench_scenarios.run_scenarios(specs, json_path=json_path)
        assert len(table.rows) == 4
        payload = json.loads((tmp_path / "BENCH_scenarios.json").read_text())
        assert [row["scenario"] for row in payload["rows"]] == [
            "mini-static",
            "mini-mobile",
            "mini-churn",
            "mini-mixed",
        ]
        for row in payload["rows"]:
            assert row["index_rebuilds"] == 0
            assert {"events", "frames", "moves", "fails", "coverage"} <= set(row)
        mobile_row = payload["rows"][1]
        assert mobile_row["moves"] > 0

    def test_sharded_row_fills_the_table(self):
        # A sharded row has moves/fails/recoveries but no hearer-index
        # counters: the rebuilds cell reads "-" instead of raising KeyError.
        table = bench_scenarios.run_scenarios(
            ["sharded-ribbon"], duration_s=1.0, json_path=None
        )
        (row,) = table.rows
        assert row[0] == "sharded-ribbon"
        assert row[table.headers.index("rebuilds")] == "-"
        assert "sharded-ribbon" in table.render()

    def test_cli_scenario_subcommand(self, tmp_path, capsys):
        code = bench_main(
            [
                "scenario",
                "--scenarios",
                "static-flood",
                "--duration",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "static-flood" in out
        assert (tmp_path / "BENCH_scenarios.json").exists()

    def test_cli_rejects_empty_scenario_list(self):
        with pytest.raises(SystemExit):
            bench_main(["scenario", "--scenarios", " , "])

    def test_cli_explicit_seed_overrides_spec_seeds(self, tmp_path, capsys):
        # mobile-flood-400's spec pins seed 11; an *explicit* --seed (even 0)
        # must win over it, while omitted flags leave spec values alone.
        code = bench_main(
            [
                "scenario",
                "--scenarios",
                "static-flood",
                "--seed",
                "0",
                "--duration",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "BENCH_scenarios.json").read_text())
        assert payload["seed"] == 0  # recorded as an override, not dropped
        assert payload["duration_s"] == 2.0


@pytest.mark.slow
class TestBuiltinBattery:
    """The full default battery at short duration: every builtin must run."""

    def test_all_builtins_run(self, tmp_path):
        table = bench_scenarios.run_scenarios(
            DEFAULT_SCENARIOS,
            duration_s=6.0,
            json_path=str(tmp_path / "BENCH_scenarios.json"),
        )
        assert len(table.rows) == len(DEFAULT_SCENARIOS)
        payload = json.loads((tmp_path / "BENCH_scenarios.json").read_text())
        by_name = {row["scenario"]: row for row in payload["rows"]}
        assert by_name["mobile-flood-400"]["nodes"] == 400
        assert by_name["mobile-flood-400"]["moves"] > 0
        assert by_name["mobile-flood-400"]["index_rebuilds"] == 0
