"""Unit tests for addressing, the network stack, filters, beacons, routing."""

import pytest

from repro.errors import NetworkError
from repro.mote import Environment, Mote
from repro.net import (
    AcquaintanceList,
    BeaconService,
    GeoMessaging,
    GeoRouter,
    Location,
    NeighborSetFilter,
    NetworkStack,
    grid_locations,
)
from repro.net import am
from repro.net.codec import pack_location, unpack_location
from repro.radio import Channel, PerfectLinks
from repro.sim import Simulator, seconds


class TestLocation:
    def test_distance(self):
        assert Location(0, 0).distance_to(Location(3, 4)) == 5.0
        assert Location(1, 1).manhattan_to(Location(4, 5)) == 7

    def test_matches_with_epsilon(self):
        assert Location(1, 1).matches(Location(1, 1))
        assert not Location(1, 1).matches(Location(1, 2))
        assert Location(1, 1).matches(Location(1, 2), epsilon=1.0)

    def test_coordinates_validated(self):
        with pytest.raises(ValueError):
            Location(40000, 0)

    def test_grid_locations_order(self):
        grid = grid_locations(3, 2)
        assert grid[0] == Location(1, 1)
        assert grid[-1] == Location(3, 2)
        assert len(grid) == 6

    def test_offset(self):
        assert Location(2, 3).offset(-1, 4) == Location(1, 7)

    def test_codec_round_trip(self):
        for loc in (Location(0, 0), Location(-5, 7), Location(32767, -32768)):
            assert unpack_location(pack_location(loc)) == loc


def build_pair(seed=0):
    """Two adjacent motes with stacks on a perfect channel."""
    sim = Simulator(seed=seed)
    channel = Channel(sim, PerfectLinks())
    motes = [
        Mote(sim, 1, Location(1, 1), Environment()),
        Mote(sim, 2, Location(2, 1), Environment()),
    ]
    stacks = [NetworkStack(m, channel.attach(m)) for m in motes]
    return sim, channel, motes, stacks


class TestNetworkStack:
    def test_unicast_dispatches_to_handler(self):
        sim, channel, motes, stacks = build_pair()
        got = []
        stacks[1].register_handler(0x42, lambda f: got.append(f.payload))
        stacks[0].send(2, 0x42, b"ping")
        sim.run_until_idle()
        assert got == [b"ping"]

    def test_frame_for_other_mote_ignored(self):
        sim, channel, motes, stacks = build_pair()
        got = []
        stacks[1].register_handler(0x42, lambda f: got.append(f))
        stacks[0].send(99, 0x42, b"x")  # addressed elsewhere
        sim.run_until_idle()
        assert got == []

    def test_broadcast_received(self):
        sim, channel, motes, stacks = build_pair()
        got = []
        stacks[1].register_handler(0x42, lambda f: got.append(f))
        stacks[0].broadcast(0x42, b"x")
        sim.run_until_idle()
        assert len(got) == 1

    def test_duplicate_handler_rejected(self):
        sim, channel, motes, stacks = build_pair()
        stacks[0].register_handler(0x42, lambda f: None)
        with pytest.raises(NetworkError):
            stacks[0].register_handler(0x42, lambda f: None)

    def test_filter_drops(self):
        sim, channel, motes, stacks = build_pair()
        got = []
        stacks[1].register_handler(0x42, lambda f: got.append(f))
        stacks[1].install_filter(lambda frame: False)
        stacks[0].send(2, 0x42, b"x")
        sim.run_until_idle()
        assert got == []
        assert stacks[1].dropped_by_filter == 1

    def test_admitted_senders_reach_the_radio(self):
        sim, channel, motes, stacks = build_pair()
        got = []
        stacks[1].register_handler(0x42, lambda f: got.append(f.payload))
        stacks[1].install_filter(NeighborSetFilter([]))
        stacks[0].send(2, 0x42, b"refused")
        sim.run_until_idle()
        stacks[1].admit_senders([1])
        stacks[0].send(2, 0x42, b"admitted")
        sim.run_until_idle()
        assert got == [b"admitted"]
        assert stacks[1].dropped_by_filter == 1

    def test_sends_queue_behind_each_other(self):
        sim, channel, motes, stacks = build_pair()
        got = []
        stacks[1].register_handler(0x42, lambda f: got.append(f.payload))
        for i in range(3):
            stacks[0].send(2, 0x42, bytes([i]))
        sim.run_until_idle()
        assert got == [b"\x00", b"\x01", b"\x02"]

    def test_queue_overflow_reports_failure(self):
        sim, channel, motes, stacks = build_pair()
        outcomes = []
        for _ in range(12):
            stacks[0].send(2, 0x42, b"x", outcomes.append)
        sim.run_until_idle()
        # One frame goes straight to the radio, eight queue behind it.
        assert outcomes.count(False) == 12 - 9
        assert stacks[0].queue_overflows == 3


class TestAcquaintanceList:
    def test_update_and_lookup(self):
        acq = AcquaintanceList()
        acq.update(5, Location(2, 1), now=0)
        acq.update(3, Location(1, 2), now=0)
        assert acq.count() == 2
        assert acq.get(0).mote_id == 3  # ordered by id
        assert acq.get(1).mote_id == 5
        assert acq.get(2) is None
        assert 5 in acq

    def test_update_refreshes(self):
        acq = AcquaintanceList()
        acq.update(5, Location(2, 1), now=0)
        acq.update(5, Location(2, 2), now=10)
        assert acq.count() == 1
        assert acq.get(0).location == Location(2, 2)

    def test_eviction_of_stale(self):
        acq = AcquaintanceList(timeout=100)
        acq.update(1, Location(1, 1), now=0)
        acq.update(2, Location(2, 1), now=150)
        acq.evict_stale(now=200)
        assert acq.count() == 1
        assert 2 in acq

    def test_capacity_evicts_stalest(self):
        acq = AcquaintanceList(capacity=2)
        acq.update(1, Location(1, 1), now=0)
        acq.update(2, Location(2, 1), now=10)
        acq.update(3, Location(3, 1), now=20)
        assert acq.count() == 2
        assert 1 not in acq

    def test_random_neighbor_deterministic(self):
        acq = AcquaintanceList()
        for i in range(4):
            acq.update(i + 1, Location(i + 1, 1), now=0)
        rng = Simulator(seed=5).rng("x")
        picks = {acq.random(rng).mote_id for _ in range(50)}
        assert picks <= {1, 2, 3, 4}
        assert len(picks) > 1
        assert AcquaintanceList().random(rng) is None


class TestBeacons:
    def test_neighbors_discovered(self):
        sim, channel, motes, stacks = build_pair()
        services = [BeaconService(m, s) for m, s in zip(motes, stacks)]
        for service in services:
            service.start(immediate=True)
        sim.run(duration=seconds(5))
        assert 2 in services[0].acquaintances
        assert 1 in services[1].acquaintances

    def test_prime_skips_discovery(self):
        sim, channel, motes, stacks = build_pair()
        service = BeaconService(motes[0], stacks[0])
        service.prime([(2, Location(2, 1))])
        assert service.acquaintances.count() == 1


class TestBeaconSuspendResume:
    """Lazy beaconing: a down radio schedules no beacon work at all."""

    def _started_pair(self):
        sim, channel, motes, stacks = build_pair()
        services = [BeaconService(m, s) for m, s in zip(motes, stacks)]
        for service in services:
            service.start()
        return sim, motes, stacks, services

    def test_radio_down_suspends_and_counts_stay_put(self):
        sim, motes, stacks, services = self._started_pair()
        sim.run(duration=seconds(10))
        sent_while_up = services[0].beacons_sent
        assert sent_while_up > 0
        stacks[0].radio.enabled = False
        assert services[0].suspended
        assert not services[0]._timer.running  # no queued beat at all
        sim.run(duration=seconds(120))
        # beacons_sent only counts real transmissions: none while asleep.
        assert services[0].beacons_sent == sent_while_up
        assert services[1].beacons_sent > sent_while_up  # peer kept going

    def test_radio_up_resumes_with_preserved_jitter(self):
        sim, motes, stacks, services = self._started_pair()
        sim.run(duration=seconds(3))
        due = services[0]._timer._pending.time
        remaining = due - sim.now
        stacks[0].radio.enabled = False
        slept_us = seconds(60)
        sim.run(duration=slept_us)
        stacks[0].radio.enabled = True
        assert not services[0].suspended
        # The interrupted jittered countdown continues where it stopped.
        assert services[0]._timer._pending.time == sim.now + remaining
        sent = services[0].beacons_sent
        sim.run(duration=remaining + 1)
        assert services[0].beacons_sent == sent + 1

    def test_redundant_power_writes_do_not_stack(self):
        sim, motes, stacks, services = self._started_pair()
        sim.run(duration=seconds(1))
        stacks[0].radio.enabled = False
        stacks[0].radio.enabled = False  # listener must not fire twice
        assert services[0].suspended
        stacks[0].radio.enabled = True
        stacks[0].radio.enabled = True
        assert services[0].suspended is False
        assert services[0]._timer.running

    def test_start_while_radio_down_stays_silent_until_up(self):
        sim, channel, motes, stacks = build_pair()
        stacks[0].radio.enabled = False
        service = BeaconService(motes[0], stacks[0])
        service.start()
        assert service.suspended
        sim.run(duration=seconds(30))
        assert service.beacons_sent == 0
        stacks[0].radio.enabled = True
        sim.run(duration=seconds(10))
        assert service.beacons_sent > 0

    def test_stop_then_start_round_trips_the_power_listener(self):
        sim, motes, stacks, services = self._started_pair()
        services[0].stop()
        assert services[0]._on_radio_power not in stacks[0].radio.power_listeners
        # Restart while the radio is down: must resume on the next power-up.
        stacks[0].radio.enabled = False
        services[0].start()
        assert services[0].suspended
        sim.run(duration=seconds(60))
        assert services[0].beacons_sent == 0
        stacks[0].radio.enabled = True
        sim.run(duration=seconds(10))
        assert services[0].beacons_sent > 0

    def test_acquaintance_timeouts_stay_consistent_across_sleep(self):
        sim, motes, stacks, services = self._started_pair()
        sim.run(duration=seconds(8))
        assert 2 in services[0].acquaintances  # discovered while both up
        # Peer dies for good; we sleep through several timeout windows.
        stacks[1].radio.enabled = False
        stacks[0].radio.enabled = False
        sim.run(duration=seconds(120))
        stacks[0].radio.enabled = True
        # Timeouts are absolute sim time: the first post-wake beat evicts
        # the long-silent peer instead of granting it a fresh grace period.
        sim.run(duration=3 * services[0].period)
        assert 2 not in services[0].acquaintances


class TestGeoRouting:
    def _grid(self, width=3, seed=0):
        """A 1-row corridor of `width` motes with primed acquaintances."""
        sim = Simulator(seed=seed)
        channel = Channel(sim, PerfectLinks())
        motes = [Mote(sim, i, Location(i, 1), Environment()) for i in range(1, width + 1)]
        stacks = [NetworkStack(m, channel.attach(m)) for m in motes]
        services = []
        for mote, stack in zip(motes, stacks):
            neighbors = [
                (other.id, other.location)
                for other in motes
                if other.location.manhattan_to(mote.location) == 1
            ]
            stack.install_filter(NeighborSetFilter(mote_id for mote_id, _ in neighbors))
            beacon = BeaconService(mote, stack)
            beacon.prime(neighbors)
            router = GeoRouter(mote.location, beacon.acquaintances)
            geo = GeoMessaging(mote, stack, router)
            services.append((mote, stack, beacon, router, geo))
        return sim, services

    def test_next_hop_progresses(self):
        sim, services = self._grid()
        _, _, _, router, _ = services[0]
        assert router.next_hop(Location(3, 1)) == 2

    def test_next_hop_none_when_no_progress(self):
        sim, services = self._grid()
        _, _, _, router, _ = services[0]
        assert router.next_hop(Location(-5, 1)) is None

    def test_multi_hop_delivery(self):
        sim, services = self._grid(width=4)
        got = []
        _, _, _, _, last_geo = services[-1]
        last_geo.register_kind(am.GEO_APP_MESSAGE, lambda src, p: got.append((src, p)))
        _, _, _, _, first_geo = services[0]
        assert first_geo.send(Location(4, 1), am.GEO_APP_MESSAGE, b"hi")
        sim.run_until_idle()
        assert got == [(Location(1, 1), b"hi")]

    def test_loopback_delivery(self):
        sim, services = self._grid()
        mote, _, _, _, geo = services[0]
        got = []
        geo.register_kind(am.GEO_APP_MESSAGE, lambda src, p: got.append(p))
        geo.send(mote.location, am.GEO_APP_MESSAGE, b"self")
        sim.run_until_idle()
        assert got == [b"self"]

    def test_unroutable_returns_false(self):
        sim, services = self._grid()
        _, _, _, _, geo = services[0]
        assert not geo.send(Location(-9, 1), am.GEO_APP_MESSAGE, b"x")
        assert geo.no_route_drops == 1

    def test_payload_size_enforced(self):
        sim, services = self._grid()
        _, _, _, _, geo = services[0]
        with pytest.raises(NetworkError):
            geo.send(Location(3, 1), am.GEO_APP_MESSAGE, bytes(30))

    def test_duplicate_kind_rejected(self):
        sim, services = self._grid()
        _, _, _, _, geo = services[0]
        geo.register_kind(0x7F, lambda s, p: None)
        with pytest.raises(NetworkError):
            geo.register_kind(0x7F, lambda s, p: None)
