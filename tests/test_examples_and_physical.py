"""Smoke tests for the example scripts and the physical-topology extension."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.agilla.agent import AgentState
from repro.agilla.assembler import assemble
from repro.location import Location
from repro.network import SensorNetwork
from repro.topology import GridTopology

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, monkeypatch, capsys):
    """Execute an example script and return its stdout."""
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example("quickstart.py", monkeypatch, capsys)
        assert "deployed 26 nodes" in out
        assert "condition=1" in out
        assert "custom counting agent" in out

    def test_fire_tracking(self, monkeypatch, capsys):
        out = run_example("fire_tracking.py", monkeypatch, capsys)
        assert "FIREDETECTOR" in out
        assert "alarms at base station=" in out
        # Fire eventually appears on the map and trackers respond.
        assert any(line.strip().startswith("F") for line in out.splitlines())
        assert "trackers=" in out

    def test_intruder_tracking(self, monkeypatch, capsys):
        out = run_example("intruder_tracking.py", monkeypatch, capsys)
        assert "samplers deployed" in out
        assert "chaser finished at (5,4)" in out

    def test_multi_application(self, monkeypatch, capsys):
        out = run_example("multi_application.py", monkeypatch, capsys)
        assert "two independent applications share every mote" in out
        assert "freed its resources" in out

    def test_mobile_perimeter(self, monkeypatch, capsys):
        out = run_example("mobile_perimeter.py", monkeypatch, capsys)
        assert "churn schedule armed" in out
        assert "1 departure(s)" in out
        assert "index rebuilds during run: 0" in out
        assert "chaser survived the churn" in out

    def test_large_random_deployment(self, monkeypatch, capsys):
        out = run_example("large_random_deployment.py", monkeypatch, capsys)
        assert "deployed 400 motes" in out
        # The clone flood must cover most of the giant component.
        assert int(out.split("nodes claimed")[0].rsplit(",", 1)[1].strip()) > 300


class TestPhysicalTopology:
    """Extension mode: real distances and distance-dependent loss, no filter."""

    def _net(self, **kwargs):
        return SensorNetwork(
            GridTopology(4, 1),
            physical=True,
            spacing_m=35.0,
            base_station=False,
            seed=3,
            **kwargs,
        )

    def test_neighbors_follow_radio_range(self):
        net = self._net()
        # At 35 m spacing with a 40 m connected region, only adjacent motes
        # are primed as neighbors.
        assert net.node((2, 1)).beacons.acquaintances.count() == 2
        assert net.node((1, 1)).beacons.acquaintances.count() == 1

    def test_agents_migrate_over_physical_links(self):
        net = self._net()
        agent = net.inject(
            assemble("pushloc 4 1\nsmove\nwait", name="phy"), at=(1, 1)
        )
        assert net.run_until(
            lambda: any(a.name == "phy" for a in net.agents_at((4, 1))), 60.0
        )

    def test_remote_ops_over_physical_links(self):
        net = self._net()
        agent = net.inject(
            assemble("pushc 3\npushc 1\npushloc 3 1\nrout\nwait", name="rp"),
            at=(1, 1),
        )
        net.run_until(lambda: agent.state == AgentState.WAIT_RXN, 30.0)
        assert agent.condition == 1

    def test_no_grid_filter_installed(self):
        net = self._net()
        for node in net.all_nodes():
            assert node.stack._filters == []
