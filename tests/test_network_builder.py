"""Tests for the grid deployment builder and the memory-footprint claims."""

import pytest

from repro.agilla.assembler import assemble
from repro.location import BASE_STATION_LOCATION, Location
from repro.mote.memory import MICA2_RAM_BYTES
from repro.network import SensorNetwork
from repro.radio.linkmodels import PerfectLinks
from repro.topology import GridTopology

from tests.util import grid


class TestTopology:
    def test_testbed_has_25_motes_plus_base_station(self):
        net = grid()
        assert len(net.nodes) == 26
        assert BASE_STATION_LOCATION in net.nodes
        assert Location(5, 5) in net.nodes

    def test_mote_ids_unique(self):
        net = grid()
        ids = [node.mote.id for node in net.all_nodes()]
        assert len(set(ids)) == len(ids)
        assert net.base_station.mote.id == 0

    def test_base_station_bridged_to_corner(self):
        net = grid()
        assert net.base_station.router.next_hop(Location(1, 1)) == 1

    def test_interior_node_has_four_neighbors(self):
        net = grid()
        assert net.node((3, 3)).beacons.acquaintances.count() == 4

    def test_corner_node_neighbors(self):
        net = grid()
        # (5,5) touches (4,5) and (5,4) only.
        assert net.node((5, 5)).beacons.acquaintances.count() == 2

    def test_grid_filter_blocks_non_neighbors(self):
        # All motes share the tabletop channel, but the software filter drops
        # frames from non-adjacent senders — the paper's §4 setup.
        net = grid()
        stack_far = net.node((5, 5)).stack
        net.node((1, 1)).stack.broadcast(0x42, b"x")
        net.sim.run(duration=1_000_000)
        assert stack_far.dropped_by_filter >= 1

    def test_physical_mode_skips_filter(self):
        net = SensorNetwork(GridTopology(3, 1), physical=True, base_station=False)
        assert net.node((1, 1)).stack._filters == []

    def test_filtered_build_computes_each_neighbor_list_once(self, monkeypatch):
        # The neighbor filter and the acquaintance priming share one list.
        calls = []
        neighbor_ids = SensorNetwork._neighbor_ids

        def counting(net, location):
            calls.append(location)
            return neighbor_ids(net, location)

        monkeypatch.setattr(SensorNetwork, "_neighbor_ids", counting)
        net = SensorNetwork(GridTopology(5, 5))
        assert len(calls) == len(net.nodes) == 26  # one call per mote
        assert set(calls) == set(net.nodes)
        assert net.node((3, 3)).stack._filters[0].accepted == {
            net.node(location).mote.id for location in ((2, 3), (4, 3), (3, 2), (3, 4))
        }


class TestMemoryBudget:
    def test_ram_matches_paper_3_59_kb(self):
        # Abstract: "consumes a mere 41.6KB of code and 3.59KB of data memory"
        net = grid()
        used = net.middleware((1, 1)).mote.memory.ram_used
        assert used == 3676  # 3.59 KiB
        assert used < MICA2_RAM_BYTES

    def test_flash_matches_paper_41_6_kb(self):
        net = grid()
        flash = net.middleware((1, 1)).mote.memory.flash_used
        assert flash == 42_598  # 41.6 KiB

    def test_every_node_fits_the_mica2(self):
        net = grid()
        for node in net.all_nodes():
            assert node.mote.memory.ram_used <= MICA2_RAM_BYTES


class TestHelpers:
    def test_run_until_true(self):
        net = grid()
        hits = []
        net.sim.schedule(500_000, lambda: hits.append(1))
        assert net.run_until(lambda: hits, 2.0)

    def test_run_until_timeout(self):
        net = grid()
        assert not net.run_until(lambda: False, 0.2)

    def test_inject_defaults_to_base_station(self):
        net = grid()
        agent = net.inject(assemble("wait", name="bs-agent"))
        assert agent in net.agents_at((0, 0))

    def test_find_agents(self):
        net = grid()
        net.inject(assemble("wait", name="fdt"), at=(3, 3))
        found = net.find_agents("fdt")
        assert len(found) == 1
        assert found[0][0] == Location(3, 3)

    def test_statistics_aggregate(self):
        net = grid()
        assert net.total_agents() == 0
        net.inject(assemble("wait", name="x"), at=(2, 2))
        assert net.total_agents() == 1
        assert net.radio_messages() == 0  # nothing transmitted yet

    def test_seed_reproducibility(self):
        def run(seed):
            net = SensorNetwork(GridTopology(3, 3), seed=seed, base_station=True)
            agent = net.inject(
                assemble("pushc 1\npushc 1\npushloc 3 3\nrout\nhalt", name="r")
            )
            net.run(10.0)
            return (agent.condition, net.radio_messages(), net.sim.events_fired)

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_beaconing_network_discovers_without_priming(self):
        net = SensorNetwork(
            GridTopology(2, 1),
            base_station=False,
            link_model=PerfectLinks(),
            beacons=True,
        )
        # Wipe the primed entries, then let beacons rebuild them.
        for node in net.all_nodes():
            node.beacons.acquaintances._entries.clear()
        net.run(25.0)
        assert net.node((1, 1)).beacons.acquaintances.count() == 1
