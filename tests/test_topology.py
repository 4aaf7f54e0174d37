"""Topology layer: generator invariants, spec loading, deployment parity.

The refactor contract is enforced here: ``GridTopology(5, 5)`` deployed
through :class:`SensorNetwork` must reproduce the seed grid builder
bit-for-bit (hard-coded golden counters captured before the topology
refactor), and the radio channel must deliver via its cached in-range index
rather than scanning every attached radio.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agilla.assembler import assemble
from repro.errors import TopologyError
from repro.location import Location
from repro.network import SensorNetwork, build_network
from repro.radio.channel import Channel
from repro.radio.frame import Frame
from repro.radio.linkmodels import PerfectLinks, UniformLossLinks
from repro.sim.kernel import Simulator
from repro.topology import (
    ClusteredTopology,
    ExplicitTopology,
    GridTopology,
    LineTopology,
    RandomUniformTopology,
    from_spec,
)
from tests.test_radio import make_mote

# ----------------------------------------------------------------------
# Strategies: one of each generator family, parameterized
# ----------------------------------------------------------------------
topologies = st.one_of(
    st.builds(
        GridTopology,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    ),
    st.builds(LineTopology, st.integers(min_value=1, max_value=20)),
    st.builds(
        RandomUniformTopology,
        count=st.integers(min_value=1, max_value=60),
        radius=st.sampled_from([1.0, 1.5, 2.0]),
        seed=st.integers(min_value=0, max_value=5),
    ),
    st.builds(
        ClusteredTopology,
        clusters=st.integers(min_value=1, max_value=4),
        cluster_size=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=5),
    ),
)


class TestTopologyInvariants:
    @given(topologies)
    @settings(max_examples=60, deadline=None)
    def test_ids_unique_and_locations_distinct(self, topology):
        directory = topology.directory()
        assert len(directory) == len(topology)
        assert len(set(directory.values())) == len(directory)
        assert sorted(directory) == list(range(1, len(topology) + 1))
        for mote_id, location in directory.items():
            assert topology.mote_id(location) == mote_id

    @given(topologies)
    @settings(max_examples=60, deadline=None)
    def test_neighbor_relation_symmetric_and_loop_free(self, topology):
        for location in topology:
            neighbors = topology.neighbors(location)
            assert location not in neighbors
            for neighbor in neighbors:
                assert location in topology.neighbors(neighbor)
        topology.validate()  # must agree with the built-in checker

    @given(topologies)
    @settings(max_examples=30, deadline=None)
    def test_gateway_is_a_member_nearest_origin(self, topology):
        gateway = topology.gateway()
        assert gateway in topology
        best = min(loc.x**2 + loc.y**2 for loc in topology)
        assert gateway.x**2 + gateway.y**2 == best

    @given(topologies, st.sampled_from([1.0, 22.0, 60.0]))
    @settings(max_examples=30, deadline=None)
    def test_positions_array_rows_follow_mote_id_order(self, topology, spacing):
        positions = topology.positions_array(spacing_m=spacing)
        assert positions.shape == (len(topology), 2)
        directory = topology.directory()
        for mote_id in range(1, len(topology) + 1):
            assert tuple(positions[mote_id - 1]) == topology.position(
                directory[mote_id], spacing_m=spacing
            )

    def test_grid_matches_paper_shape(self):
        topology = GridTopology(5, 5)
        assert len(topology) == 25
        assert topology.mote_id(Location(1, 1)) == 1
        assert topology.mote_id(Location(5, 5)) == 25
        assert topology.neighbors(Location(3, 3)) == frozenset(
            {Location(2, 3), Location(4, 3), Location(3, 2), Location(3, 4)}
        )
        assert topology.degree(Location(1, 1)) == 2

    def test_line_is_a_corridor(self):
        topology = LineTopology(4)
        assert [loc.y for loc in topology] == [1, 1, 1, 1]
        assert topology.degree(Location(1, 1)) == 1
        assert topology.degree(Location(2, 1)) == 2

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(TopologyError):
            GridTopology(0, 5)
        with pytest.raises(TopologyError):
            ExplicitTopology([(1, 1), (1, 1)]).locations()
        with pytest.raises(TopologyError):
            ExplicitTopology([(1, 1), (2, 1)], edges=[((1, 1), (9, 9))]).validate()

    def test_explicit_edges_are_symmetric(self):
        topology = ExplicitTopology(
            [(1, 1), (2, 1), (4, 1)], edges=[((1, 1), (2, 1)), ((2, 1), (4, 1))]
        ).validate()
        assert topology.neighbors(Location(4, 1)) == frozenset({Location(2, 1)})
        assert topology.neighbors(Location(2, 1)) == frozenset(
            {Location(1, 1), Location(4, 1)}
        )


class TestFromSpec:
    def test_grid_spec(self):
        topology = from_spec({"kind": "grid", "width": 3, "height": 2})
        assert isinstance(topology, GridTopology)
        assert len(topology) == 6

    def test_random_spec_is_deterministic(self):
        spec = {"kind": "random", "count": 40, "seed": 9}
        assert from_spec(spec).locations() == from_spec(spec).locations()

    def test_explicit_spec_with_edges(self):
        topology = from_spec(
            {
                "kind": "explicit",
                "nodes": [[1, 1], [2, 1], [4, 1]],
                "edges": [[[1, 1], [2, 1]], [[2, 1], [4, 1]]],
            }
        )
        assert topology.degree(Location(2, 1)) == 2

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"kind": "clustered", "clusters": 2, "cluster_size": 5}))
        topology = from_spec(path)
        assert isinstance(topology, ClusteredTopology)
        assert len(topology) == 10

    def test_bad_specs_fail_loudly(self, tmp_path):
        with pytest.raises(TopologyError):
            from_spec({"kind": "moebius"})
        with pytest.raises(TopologyError):
            from_spec({"kind": "grid", "widht": 5})
        with pytest.raises(TopologyError):
            from_spec(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TopologyError):
            from_spec(str(bad))


# ----------------------------------------------------------------------
# Deployment parity: the refactored builder reproduces the seed network
# ----------------------------------------------------------------------
def _fixed_seed_run(net) -> tuple[int, int, int]:
    net.inject(assemble("pushc 1\npushc 1\npushloc 5 5\nrout\nhalt", name="gold"))
    net.run(30.0)
    return (net.radio_messages(), net.sim.events_fired, net.radio_bytes())


class TestSeedNetworkParity:
    #: Captured from the pre-refactor grid builder (default 5x5, lossy links,
    #: beacons on) — (radio_messages, events_fired, radio_bytes) per seed.
    #: The frame and byte counts are untouched since the seed capture; the
    #: event counts were re-pinned for PR 5's run-slice engine, which by
    #: design posts O(slices) instead of O(instructions) kernel events
    #: (frame/byte identity across that change is what proves the CPU
    #: timeline didn't move).
    GOLDEN = {0: (96, 481, 3557), 3: (93, 496, 3354), 7: (78, 431, 2730)}

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_sensor_network_over_grid_topology_bit_for_bit(self, seed):
        net = SensorNetwork(GridTopology(5, 5), seed=seed)
        assert _fixed_seed_run(net) == self.GOLDEN[seed]

    def test_physical_mode_bit_for_bit(self):
        net = SensorNetwork(
            GridTopology(4, 1), physical=True, spacing_m=35.0,
            base_station=False, seed=3,
        )
        net.inject(assemble("pushloc 4 1\nsmove\nwait", name="phy"), at=(1, 1))
        net.run(30.0)
        # Event count re-pinned for the PR 5 run-slice engine; frames/bytes
        # are the seed capture's.
        assert (net.radio_messages(), net.sim.events_fired, net.radio_bytes()) == (
            28, 114, 984,
        )


class TestSensorNetworkDeployments:
    def test_agents_run_over_a_random_topology(self):
        topology = RandomUniformTopology(count=30, seed=2)
        net = SensorNetwork(
            topology, seed=1, base_station=False, link_model=PerfectLinks()
        )
        start = topology.gateway()
        neighbor = min(topology.neighbors(start))
        agent = net.inject(
            assemble(f"pushloc {neighbor.x} {neighbor.y}\nsmove\nwait", name="rnd"),
            at=start,
        )
        assert net.run_until(
            lambda: any(a.name == "rnd" for a in net.agents_at(neighbor)), 30.0
        )

    def test_base_station_bridges_to_gateway(self):
        topology = RandomUniformTopology(count=20, seed=4)
        net = SensorNetwork(topology, seed=0, link_model=PerfectLinks())
        gateway_id = topology.mote_id(topology.gateway())
        assert net.base_station.router.next_hop(topology.gateway()) == gateway_id

    def test_base_station_collision_rejected(self):
        topology = ExplicitTopology([(0, 0), (1, 0)])
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            SensorNetwork(topology)

    def test_build_network_accepts_spec_dict(self):
        net = build_network(
            {"kind": "line", "length": 3}, base_station=False, beacons=False
        )
        assert len(net.nodes) == 3

    def test_neighbor_filter_derives_from_topology(self):
        topology = ExplicitTopology(
            [(1, 1), (2, 1), (5, 5)], edges=[((1, 1), (2, 1))]
        )
        net = SensorNetwork(
            topology, base_station=False, link_model=PerfectLinks(), beacons=False
        )
        far = net.node((5, 5)).stack
        net.node((1, 1)).stack.broadcast(0x42, b"x")
        net.sim.run(duration=1_000_000)
        assert far.dropped_by_filter >= 1
        assert net.node((2, 1)).stack.dropped_by_filter == 0

    @pytest.mark.parametrize("seed", (1, 10_000))
    def test_filter_and_addressing_counters_are_exact(self, seed):
        # Everyone hears everyone; the topology makes a chain A - B - C and
        # leaves D alone.  A broadcasts, then unicasts to C: B takes the
        # broadcast and ignores C's frame, while C and D refuse A as a
        # sender (C twice: the unicast is addressed to it).  The counts
        # hold whatever backoff stream the seed draws.
        topology = ExplicitTopology(
            [(1, 1), (2, 1), (3, 1), (5, 5)],
            edges=[((1, 1), (2, 1)), ((2, 1), (3, 1))],
        )
        net = SensorNetwork(
            topology,
            seed=seed,
            base_station=False,
            link_model=PerfectLinks(),
            beacons=False,
        )
        stacks = [net.node(location).stack for location in topology.nodes]
        for stack in stacks:
            stack.register_handler(0x42, lambda frame: None)
        a, _, c, _ = stacks
        a.broadcast(0x42, b"b")
        a.send(c.mote.id, 0x42, b"u")
        net.sim.run(duration=1_000_000)
        assert [
            (stack.received, stack.dropped_by_filter, stack.radio.frames_received)
            for stack in stacks
        ] == [(0, 0, 0), (1, 0, 2), (0, 2, 2), (0, 1, 2)]


# ----------------------------------------------------------------------
# O(degree) channel: deliveries go through the cached in-range index
# ----------------------------------------------------------------------
class _CountingLinks(PerfectLinks):
    def __init__(self, range_m):
        super().__init__(range_m=range_m)
        self.in_range_calls = 0

    def in_range(self, src, dst):
        self.in_range_calls += 1
        return super().in_range(src, dst)

    def prr(self, src, dst):
        return 1.0  # keep per-delivery PRR lookups out of the in_range count


class TestChannelNeighborIndex:
    def test_hearers_are_the_in_range_subset(self):
        sim = Simulator()
        channel = Channel(sim, PerfectLinks(range_m=1.5), grid_spacing_m=1.0)
        radios = [channel.attach(make_mote(sim, i, i, 1)) for i in range(1, 6)]
        audience = channel.hearers(radios[2])
        assert [radio.mote.id for radio in audience] == [2, 4]

    def test_delivery_does_not_rescan_link_model(self):
        sim = Simulator()
        links = _CountingLinks(range_m=1.5)
        channel = Channel(sim, links, grid_spacing_m=1.0)
        radios = [channel.attach(make_mote(sim, i, i, 1)) for i in range(1, 30)]
        for radio in radios:
            radio.set_receive_callback(lambda frame: None)
        radios[0].send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        calls_after_warmup = links.in_range_calls
        for _ in range(10):
            radios[0].send(Frame(1, 2, 0x10, b"x"))
            sim.run_until_idle()
        # Cached index: repeated frames never re-query link geometry.
        assert links.in_range_calls == calls_after_warmup

    def test_attach_invalidates_index(self):
        sim = Simulator()
        channel = Channel(sim, PerfectLinks(range_m=1.5), grid_spacing_m=1.0)
        first = channel.attach(make_mote(sim, 1, 1, 1))
        assert channel.hearers(first) == []
        second = channel.attach(make_mote(sim, 2, 2, 1))
        assert [r.mote.id for r in channel.hearers(first)] == [2]

    def test_link_model_swap_invalidates_index(self):
        sim = Simulator()
        channel = Channel(sim, PerfectLinks(range_m=100.0), grid_spacing_m=1.0)
        a = channel.attach(make_mote(sim, 1, 1, 1))
        b = channel.attach(make_mote(sim, 2, 9, 1))
        assert [r.mote.id for r in channel.hearers(a)] == [2]
        channel.link_model = PerfectLinks(range_m=2.0)
        assert channel.hearers(a) == []

    def test_index_handles_models_without_range(self):
        class NoRangeLinks:
            def in_range(self, src, dst):
                return True

            def prr(self, src, dst):
                return 1.0

        sim = Simulator()
        channel = Channel(sim, NoRangeLinks())
        radios = [channel.attach(make_mote(sim, i, i, 1)) for i in range(1, 4)]
        assert len(channel.hearers(radios[0])) == 2
        got = []
        radios[2].set_receive_callback(got.append)
        radios[0].send(Frame(1, 3, 0x10, b"x"))
        sim.run_until_idle()
        assert len(got) == 1

    def test_receivers_own_finished_transmission_still_collides(self):
        # Half-duplex history: B transmitted during the first half of A's
        # frame and finished before it ended (so transmitting_during sees
        # nothing) — the frame must still be corrupted, exactly as when the
        # channel compared every transmission against every radio.
        from repro.radio.channel import Transmission

        sim = Simulator()
        channel = Channel(sim, PerfectLinks())
        a = channel.attach(make_mote(sim, 1, 1, 1))
        b = channel.attach(make_mote(sim, 2, 2, 1))
        got = []
        b.set_receive_callback(got.append)
        tx_a = Transmission(a, Frame(1, 2, 0x10, b"x"), 0, 100)
        tx_b = Transmission(b, Frame(2, 1, 0x10, b"y"), 0, 50)
        channel.begin_transmission(tx_a)
        channel.begin_transmission(tx_b)
        channel.end_transmission(tx_a)
        assert got == []
        assert channel.collisions == 1

    def test_finished_transmissions_are_not_retained(self):
        """The channel keeps no transmission history: overlap sets are built
        while frames share the air, so a long run leaves the on-air list
        empty and serialized frames never accumulate overlap references."""
        sim = Simulator()
        channel = Channel(sim, UniformLossLinks())
        a = channel.attach(make_mote(sim, 1, 1, 1))
        b = channel.attach(make_mote(sim, 2, 2, 1))
        b.set_receive_callback(lambda frame: None)
        for _ in range(200):
            a.send(Frame(1, 2, 0x10, b"x"))
            sim.run_until_idle()
        assert channel._on_air == []
