"""Unit tests for frames, link models and the CSMA channel."""

import random

import pytest

from repro.errors import RadioError
from repro.mote import Environment, Mote
from repro.net.addresses import BROADCAST_ID, Location
from repro.radio import (
    Channel,
    DistancePrrLinks,
    Frame,
    MacParams,
    PerfectLinks,
    UniformLossLinks,
)
from repro.radio.frame import FRAME_OVERHEAD_BYTES, MAX_PAYLOAD
from repro.sim import Simulator, ms


def make_mote(sim, mote_id, x, y):
    return Mote(sim, mote_id, Location(x, y), Environment())


class TestFrame:
    def test_payload_limit_is_27_bytes(self):
        Frame(1, 2, 0x10, bytes(MAX_PAYLOAD))
        with pytest.raises(RadioError):
            Frame(1, 2, 0x10, bytes(MAX_PAYLOAD + 1))

    def test_air_bytes_include_overhead(self):
        frame = Frame(1, 2, 0x10, b"abc")
        assert frame.air_bytes == 3 + FRAME_OVERHEAD_BYTES

    def test_broadcast_flag(self):
        assert Frame(1, BROADCAST_ID, 0x10).is_broadcast
        assert not Frame(1, 2, 0x10).is_broadcast


class TestLinkModels:
    def test_perfect_links(self):
        model = PerfectLinks(range_m=10)
        assert model.prr((0, 0), (0, 9)) == 1.0
        assert model.prr((0, 0), (0, 11)) == 0.0

    def test_uniform_loss(self):
        model = UniformLossLinks(prr=0.9, range_m=10)
        assert model.prr((0, 0), (1, 0)) == 0.9
        assert not model.in_range((0, 0), (20, 0))
        with pytest.raises(ValueError):
            UniformLossLinks(prr=1.5)

    def test_distance_prr_decays(self):
        model = DistancePrrLinks(connected_m=10, range_m=20, prr_connected=1.0)
        assert model.prr((0, 0), (5, 0)) == 1.0
        assert model.prr((0, 0), (15, 0)) == pytest.approx(0.5)
        assert model.prr((0, 0), (25, 0)) == 0.0
        with pytest.raises(ValueError):
            DistancePrrLinks(connected_m=30, range_m=20)


class TestChannel:
    def _pair(self, seed=0, link_model=None):
        sim = Simulator(seed=seed)
        channel = Channel(sim, link_model or PerfectLinks())
        a = make_mote(sim, 1, 1, 1)
        b = make_mote(sim, 2, 2, 1)
        radio_a = channel.attach(a)
        radio_b = channel.attach(b)
        return sim, channel, radio_a, radio_b

    def test_delivery_on_perfect_link(self):
        sim, channel, radio_a, radio_b = self._pair()
        got = []
        radio_b.set_receive_callback(got.append)
        radio_a.send(Frame(1, 2, 0x10, b"hello"))
        sim.run_until_idle()
        assert len(got) == 1
        assert got[0].payload == b"hello"

    def test_airtime_scales_with_size(self):
        sim, channel, _, _ = self._pair()
        small = channel.airtime_us(Frame(1, 2, 0x10, b""))
        large = channel.airtime_us(Frame(1, 2, 0x10, bytes(MAX_PAYLOAD)))
        assert large > small
        # 27+29 bytes at 19.2 kbps is roughly 23 ms.
        assert ms(20) < large < ms(27)

    def test_sender_does_not_hear_itself(self):
        sim, channel, radio_a, radio_b = self._pair()
        got = []
        radio_a.set_receive_callback(got.append)
        radio_a.send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert got == []

    def test_broadcast_reaches_all_in_range(self):
        sim = Simulator()
        channel = Channel(sim, PerfectLinks())
        radios = [channel.attach(make_mote(sim, i, i, 1)) for i in range(1, 4)]
        got = {i: [] for i in range(3)}
        for index, radio in enumerate(radios):
            radio.set_receive_callback(got[index].append)
        radios[0].send(Frame(1, BROADCAST_ID, 0x10, b"b"))
        sim.run_until_idle()
        assert len(got[1]) == 1 and len(got[2]) == 1
        assert got[0] == []

    def test_lossy_link_drops_some(self):
        drops = 0
        deliveries = 0
        sim = Simulator(seed=42)
        channel = Channel(sim, UniformLossLinks(prr=0.5))
        a = make_mote(sim, 1, 1, 1)
        b = make_mote(sim, 2, 2, 1)
        radio_a = channel.attach(a)
        radio_b = channel.attach(b)
        got = []
        radio_b.set_receive_callback(got.append)
        for _ in range(200):
            radio_a.send(Frame(1, 2, 0x10, b"x"))
            sim.run_until_idle()
        deliveries = len(got)
        drops = channel.prr_drops
        assert deliveries + drops == 200
        assert 60 < deliveries < 140  # ~100 expected

    def test_prr_override_forces_loss(self):
        sim, channel, radio_a, radio_b = self._pair()
        channel.prr_overrides[(1, 2)] = 0.0
        got = []
        radio_b.set_receive_callback(got.append)
        for _ in range(5):
            radio_a.send(Frame(1, 2, 0x10, b"x"))
            sim.run_until_idle()
        assert got == []
        assert channel.prr_drops == 5

    def test_disabled_radio_does_not_receive(self):
        sim, channel, radio_a, radio_b = self._pair()
        radio_b.enabled = False
        got = []
        radio_b.set_receive_callback(got.append)
        radio_a.send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert got == []

    def test_disabled_radio_send_fails(self):
        sim, channel, radio_a, _ = self._pair()
        radio_a.enabled = False
        outcomes = []
        radio_a.send(Frame(1, 2, 0x10, b"x"), outcomes.append)
        sim.run_until_idle()
        assert outcomes == [False]

    def test_concurrent_send_rejected(self):
        sim, channel, radio_a, _ = self._pair()
        radio_a.send(Frame(1, 2, 0x10, b"x"))
        with pytest.raises(RadioError):
            radio_a.send(Frame(1, 2, 0x10, b"y"))
        sim.run_until_idle()

    def test_send_done_callback_fires_true(self):
        sim, channel, radio_a, _ = self._pair()
        outcomes = []
        radio_a.send(Frame(1, 2, 0x10, b"x"), outcomes.append)
        sim.run_until_idle()
        assert outcomes == [True]

    def test_out_of_range_not_delivered(self):
        sim = Simulator()
        channel = Channel(sim, PerfectLinks(range_m=0.5), grid_spacing_m=1.0)
        a = make_mote(sim, 1, 1, 1)
        b = make_mote(sim, 2, 5, 1)
        radio_a = channel.attach(a)
        radio_b = channel.attach(b)
        got = []
        radio_b.set_receive_callback(got.append)
        radio_a.send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert got == []

    def test_carrier_sense_defers_second_sender(self):
        # With CSMA both frames should get through without collision.
        sim = Simulator(seed=9)
        channel = Channel(sim, PerfectLinks())
        motes = [make_mote(sim, i, i, 1) for i in range(1, 4)]
        radios = [channel.attach(m) for m in motes]
        got = []
        radios[2].set_receive_callback(got.append)
        radios[0].send(Frame(1, 3, 0x10, b"a"))
        radios[1].send(Frame(2, 3, 0x10, b"b"))
        sim.run_until_idle()
        assert len(got) + channel.collisions in (2, 1)
        # In the common case carrier sense avoids the collision entirely.
        assert len(got) >= 1

    def test_idle_carrier_sense_early_outs_before_any_index(self):
        # Nothing on the air answers from one list check: no on-air scan,
        # no hearer list built.
        sim, channel, radio_a, radio_b = self._pair()
        for _ in range(3):
            assert channel.busy_for(radio_a) is False
            assert channel.busy_for(radio_b) is False
        assert channel.sense_idle == 6
        assert channel.sense_scalar == 0
        assert channel.sense_vector == 0
        assert channel._audiences == {}

    def test_pending_carrier_sense_clears_as_it_fires(self):
        # The shard lookahead reads a non-None handle as a carrier sense
        # still to come, so no handle may outlive its event.
        sim, channel, radio_a, radio_b = self._pair()
        radio_a.send(Frame(1, 2, 0x10, b"x" * 20))
        armed_a = radio_a._pending_carrier_sense
        assert armed_a is not None and armed_a.time > sim.now
        sim.run(until=armed_a.time)
        assert radio_a._pending_carrier_sense is None  # fired: frame on the air
        scans = channel.sense_scalar
        assert channel.busy_for(radio_b) is True
        assert channel.sense_scalar == scans + 1  # one on-air scan per call
        # A busy carrier re-arms a congestion backoff: a fresh, later handle.
        radio_b.send(Frame(2, 1, 0x10, b"y"))
        armed_b = radio_b._pending_carrier_sense
        assert armed_b.time < channel._on_air[0].end  # senses a's frame
        sim.run(until=armed_b.time)
        rearmed = radio_b._pending_carrier_sense
        assert rearmed is not None and rearmed is not armed_b
        assert rearmed.time > sim.now
        sim.run_until_idle()
        assert radio_a._pending_carrier_sense is None
        assert radio_b._pending_carrier_sense is None
        idle = channel.sense_idle
        assert channel.busy_for(radio_b) is False
        assert channel.sense_idle == idle + 1

    def _detach_mid_flight(self, sense_between):
        """Radio 1 of three (x = 0, 1, 2 m; 10 m range) detaches with its
        frame on the air, then radio 3 moves out of range before the frame
        ends.  Returns (prr_drops, the channel's next draw)."""
        sim = Simulator(seed=0)
        channel = Channel(sim, PerfectLinks(range_m=10.0))
        radios = [
            channel.attach(make_mote(sim, i + 1, i, 0), (float(i), 0.0)) for i in range(3)
        ]
        radios[0].send(Frame(1, BROADCAST_ID, 0x10, b"x"))
        sim.run(until=radios[0]._pending_carrier_sense.time)
        assert channel._on_air  # radio 1's frame is on the air
        channel.detach(1)
        if sense_between:
            assert channel.busy_for(radios[1]) is True
        channel.move(3, (50.0, 0.0))
        sim.run_until_idle()
        return channel.prr_drops, channel.rng.random()

    def test_detached_transmitter_audience_follows_later_moves(self):
        # A detached radio sits in no spatial-hash cell, so a hearer list
        # cached for it (here by carrier sense) would miss radio 3's move
        # and draw a loss for a radio 50 m away.  Whether anyone sensed the
        # carrier in between must not change the frame's outcome.
        unsensed = self._detach_mid_flight(sense_between=False)
        assert unsensed[0] == 0
        assert self._detach_mid_flight(sense_between=True) == unsensed

    def test_ended_frames_are_not_pinned_by_a_busy_air(self):
        # Staggered 25 µs frames every 10 µs from three radios keep the air
        # busy throughout, each frame overlapping the next two.  Once the
        # chain has moved on, nothing may still reach its first frame.
        import gc
        import weakref

        from repro.radio import Transmission

        sim = Simulator(seed=0)
        channel = Channel(sim, PerfectLinks(range_m=10.0))
        radios = [
            channel.attach(make_mote(sim, i + 1, i, 0), (float(i), 0.0)) for i in range(3)
        ]
        airborne = []
        first = None
        for k in range(12):
            start = 10 * k
            while airborne and airborne[0].end <= start:
                channel.end_transmission(airborne.pop(0))
            tx = Transmission(
                radios[k % 3], Frame(k % 3 + 1, BROADCAST_ID, 0x10, b"x"), start, start + 25
            )
            channel.begin_transmission(tx)
            airborne.append(tx)
            if first is None:
                first = weakref.ref(tx)
        del tx
        assert len(channel._on_air) == 3  # the air never went idle
        gc.collect()
        assert first() is None

    def test_receiver_failed_mid_flight_misses_the_frame(self):
        # Powering a receiver down while a frame is on the air makes it
        # ineligible: no loss draw, no reception.
        sim, channel, radio_a, radio_b = self._pair()
        got = []
        radio_b.set_receive_callback(got.append)
        radio_a.send(Frame(1, 2, 0x10, b"dark"))
        sim.run(duration=ms(1))
        radio_b.enabled = False
        sim.run_until_idle()
        assert got == []
        assert channel.prr_drops == 0  # ineligible, not unlucky

    def test_hidden_terminal_collision(self):
        from repro.radio import Transmission

        sim = Simulator(seed=0)
        channel = Channel(sim, PerfectLinks(range_m=1.5), grid_spacing_m=1.0)
        radio_a = channel.attach(make_mote(sim, 1, 0, 0))
        radio_b = channel.attach(make_mote(sim, 2, 1, 0))
        radio_c = channel.attach(make_mote(sim, 3, 2, 0))
        got = []
        radio_b.set_receive_callback(got.append)
        # A and C are mutually inaudible but both reach B: put both frames on
        # the air directly (bypassing CSMA, which would defer one of them).
        tx_a = Transmission(radio_a, Frame(1, 0xFFFF, 0x10, b"x"), sim.now, sim.now + 100)
        tx_c = Transmission(radio_c, Frame(3, 0xFFFF, 0x10, b"y"), sim.now, sim.now + 100)
        channel.begin_transmission(tx_a)
        channel.begin_transmission(tx_c)
        channel.end_transmission(tx_a)
        channel.end_transmission(tx_c)
        assert got == []
        assert channel.collisions == 2

    @pytest.mark.parametrize("scale", (1, 10_000))
    def test_overlap_prune_keeps_every_pair_that_can_share_a_hearer(self, scale):
        # 10 m range.  A (0 m) and B (20 m) are exactly twice the range
        # apart and C (10 m) hears both, so B's frame must still corrupt
        # A's at C.  D (-21 m) is farther than twice the range from A: no
        # radio can hear both, so A's fan-out never looks D's audience up.
        # The bound's slack is relative, so the same layout scaled up to
        # 100 km keeps the boundary pair too.
        from repro.radio import Transmission

        sim = Simulator(seed=0)
        channel = Channel(sim, PerfectLinks(range_m=10.0 * scale))
        a, b, c, d = (
            channel.attach(make_mote(sim, i + 1, i, 0), (x * scale, 0.0))
            for i, x in enumerate((0.0, 20.0, 10.0, -21.0))
        )
        got = []
        c.set_receive_callback(got.append)
        frames = [
            Transmission(radio, Frame(radio.mote.id, BROADCAST_ID, 0x10, b"x"), 0, 100)
            for radio in (a, b, d)
        ]
        for tx in frames:
            channel.begin_transmission(tx)
        channel.end_transmission(frames[0])
        assert got == [] and channel.collisions == 1
        assert b.mote.id in channel._audiences and d.mote.id not in channel._audiences

    def test_channel_stream_matches_legacy_stdlib_stream(self):
        """The channel draws from ``random.Random(f"{seed}/channel")``, the
        stream every fixed-seed golden was recorded with, whether the
        simulator's seed is an int or a shard worker's derived string."""
        for seed in (3, "0/shard1"):
            channel = Channel(Simulator(seed=seed), PerfectLinks())
            twin = random.Random(f"{seed}/channel")
            chooser = random.Random(42)  # picks the draw kind, not under test
            for _ in range(200):
                if chooser.randrange(2):
                    assert channel.rng.random() == twin.random()
                else:
                    assert channel.rng.randint(400, 12_800) == twin.randint(400, 12_800)

    def test_duplicate_attach_rejected(self):
        sim = Simulator()
        channel = Channel(sim)
        mote = make_mote(sim, 1, 1, 1)
        channel.attach(mote)
        with pytest.raises(RadioError):
            channel.attach(mote)

    def test_stats_counted(self):
        sim, channel, radio_a, radio_b = self._pair()
        radio_b.set_receive_callback(lambda f: None)
        radio_a.send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert channel.frames_transmitted == 1
        assert radio_a.frames_sent == 1
        assert radio_b.frames_received == 1
        assert radio_a.bytes_sent > 0


class CountingLinks(DistancePrrLinks):
    """A distance model that counts its ``prr`` evaluations."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.prr_calls = 0

    def prr(self, src, dst):
        self.prr_calls += 1
        return super().prr(src, dst)


class TestAudienceRecord:
    """Each transmitter's cached audience record carries its hearers' PRRs.

    Under ``DistancePrrLinks(connected_m=1, range_m=2, prr_connected=1.0)``
    a hearer 1 m away receives every frame and one exactly 2 m away is in
    range at PRR 0.0, so after a change that puts it at 2 m the next frame
    must be a ``prr_drop``: a stale PRR of 1.0 would deliver it."""

    def _pair(self, link_model=None):
        """Radio 1 at the origin, radio 2 one meter away."""
        sim = Simulator(seed=0)
        if link_model is None:
            link_model = CountingLinks(connected_m=1.0, range_m=2.0, prr_connected=1.0)
        channel = Channel(sim, link_model, grid_spacing_m=1.0)
        radio_a = channel.attach(make_mote(sim, 1, 0, 0), (0.0, 0.0))
        radio_b = channel.attach(make_mote(sim, 2, 1, 0), (1.0, 0.0))
        radio_b.set_receive_callback(lambda f: None)
        return sim, channel, radio_a, radio_b

    @staticmethod
    def _send(sim, radio, count=1):
        for _ in range(count):
            radio.send(Frame(radio.mote.id, BROADCAST_ID, 0x10, b"x"))
            sim.run_until_idle()

    def test_repeat_deliveries_build_the_record_once(self):
        sim, channel, radio_a, radio_b = self._pair()
        self._send(sim, radio_a, 5)
        assert radio_b.frames_received == 5
        assert channel.link_model.prr_calls == 1
        assert channel._audiences[1] == ([radio_b], frozenset({2}), [1.0])

    def test_record_prrs_follow_the_model_in_attach_order(self):
        sim, channel, radio_a, radio_b = self._pair()
        # Attached last, yet nearer than radio 2: the record keeps attach
        # order, each PRR beside its hearer.
        radio_c = channel.attach(make_mote(sim, 3, 0, 0), (0.5, 0.0))
        radio_far = channel.attach(make_mote(sim, 4, 0, 0), (1.5, 0.0))
        record = channel._audience_of(radio_a)
        assert record.radios == [radio_b, radio_c, radio_far]
        assert record.ids == frozenset({2, 3, 4})
        assert record.prrs == [1.0, 1.0, 0.5]
        assert channel.hearers(radio_a) is record.radios

    @pytest.mark.parametrize("mover", (1, 2))
    def test_move_to_the_range_edge_drops_the_next_frame(self, mover):
        # Either end moving to 2 m apart must drop radio 1's record.
        sim, channel, radio_a, radio_b = self._pair()
        self._send(sim, radio_a)
        assert radio_b.frames_received == 1
        calls = channel.link_model.prr_calls
        channel.move(mover, (-1.0, 0.0) if mover == 1 else (2.0, 0.0))
        self._send(sim, radio_a)
        assert radio_b.frames_received == 1
        assert channel.prr_drops == 1
        assert channel._audiences[1].prrs == [0.0]
        assert channel.link_model.prr_calls == calls + 1  # rebuilt once

    def test_reattached_id_gets_a_fresh_prr(self):
        sim, channel, radio_a, radio_b = self._pair()
        self._send(sim, radio_a)
        assert radio_b.frames_received == 1
        channel.detach(2)
        newcomer = channel.attach(make_mote(sim, 2, 2, 0), (2.0, 0.0))
        newcomer.set_receive_callback(lambda f: None)
        self._send(sim, radio_a)
        assert newcomer.frames_received == 0
        assert channel.prr_drops == 1
        assert channel._audiences[1] == ([newcomer], frozenset({2}), [0.0])

    def test_model_swap_rebuilds_prrs(self):
        sim, channel, radio_a, radio_b = self._pair(PerfectLinks(range_m=2.0))
        self._send(sim, radio_a)
        assert radio_b.frames_received == 1
        channel.link_model = UniformLossLinks(prr=0.0, range_m=2.0)
        self._send(sim, radio_a)
        assert radio_b.frames_received == 1
        assert channel.prr_drops == 1
        assert channel._audiences[1].prrs == [0.0]

    def test_override_installed_mid_flight_applies_to_next_delivery(self):
        """Regression: ``prr_overrides`` set *after* a frame is already on
        the air must still decide that frame's reception — the override is
        read before the cached record's PRR and bumps ``prr_drops``."""
        sim, channel, radio_a, radio_b = self._pair(PerfectLinks())
        got = []
        radio_b.set_receive_callback(got.append)
        # Build radio 1's record with a successful delivery at PRR 1.0.
        radio_a.send(Frame(1, 2, 0x10, b"warm"))
        sim.run_until_idle()
        assert got and channel.prr_drops == 0
        # Put the next frame on the air, then break the link mid-flight.
        radio_a.send(Frame(1, 2, 0x10, b"doomed"))
        sim.run(duration=ms(1))  # backoff + TX begin; end-of-frame is ahead
        channel.prr_overrides[(1, 2)] = 0.0
        sim.run_until_idle()
        assert len(got) == 1  # the in-flight frame was dropped
        assert channel.prr_drops == 1
        # Clearing the override re-exposes the record's PRR (1.0): delivery.
        del channel.prr_overrides[(1, 2)]
        radio_a.send(Frame(1, 2, 0x10, b"again"))
        sim.run_until_idle()
        assert len(got) == 2


class TestHearerIndex:
    """Each radio's position and attach sequence live on the radio itself,
    written only by the channel's attach/move/detach hooks, and every
    hearer list matches a brute-force ``in_range`` walk in attach order."""

    def _deploy(self, count=3, order=None):
        sim = Simulator(seed=0)
        channel = Channel(sim, PerfectLinks(range_m=2.0), grid_spacing_m=1.0)
        ids = order or list(range(1, count + 1))
        radios = [channel.attach(make_mote(sim, i, i - 1, 0)) for i in ids]
        return sim, channel, radios

    @staticmethod
    def _brute_hearers(channel, radio):
        audience = [
            other
            for other in channel.radios
            if other is not radio
            and channel._link_model.in_range(radio.position, other.position)
        ]
        return sorted(audience, key=lambda other: other._attach_seq)

    def test_attach_and_move_set_positions(self):
        sim, channel, radios = self._deploy()
        assert [r.position for r in radios] == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        # Build the index first, so the move below re-keys it incrementally.
        assert channel.hearers(radios[0]) == [radios[1], radios[2]]
        channel.move(2, (9.0, 4.0))
        assert radios[1].position == (9.0, 4.0)
        assert channel.radio_for(2) is radios[1]
        for radio in radios:
            assert channel.hearers(radio) == self._brute_hearers(channel, radio)
        assert channel.hearers(radios[0]) == [radios[2]]
        assert channel.hearers(radios[1]) == []

    def test_detach_frees_the_id(self):
        sim, channel, radios = self._deploy()
        for radio in radios:
            channel.hearers(radio)  # cache every list before the detach
        departed = channel.detach(3)
        assert departed is radios[2]
        assert not departed._attached
        assert not departed.enabled
        assert channel.radio_for(3) is None
        assert departed not in channel.radios
        for radio in radios[:2]:
            assert departed not in channel.hearers(radio)
            assert channel.hearers(radio) == self._brute_hearers(channel, radio)
        # The id is free again.
        assert channel.attach(make_mote(sim, 3, 2, 0)).mote.id == 3

    def test_attach_seq_follows_attach_order(self):
        # Attached out of id order: hearer lists follow attach order, not ids.
        sim, channel, radios = self._deploy(order=[3, 1, 2])
        seqs = [r._attach_seq for r in radios]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        by_id = {r.mote.id: r for r in radios}
        assert channel.hearers(by_id[2]) == [by_id[3], by_id[1]]
        for radio in radios:
            audience = channel.hearers(radio)
            assert [r._attach_seq for r in audience] == sorted(
                r._attach_seq for r in audience
            )

    def test_reattached_id_gets_fresh_state(self):
        sim, channel, radios = self._deploy()
        for radio in radios:
            channel.hearers(radio)
        channel.detach(2)
        radio = channel.attach(make_mote(sim, 2, 7, 7), position=(1.0, 1.0))
        assert radio is not radios[1]
        assert channel.radio_for(2) is radio
        assert radio.position == (1.0, 1.0)
        assert radio._attached and not radios[1]._attached
        assert radio._attach_seq > max(r._attach_seq for r in radios)
        # The newcomer hears, and is heard, as the last-attached radio; the
        # departed radio under the same id is in no list.
        assert channel.hearers(radios[0]) == [radios[2], radio]
        assert channel.hearers(radio) == [radios[0], radios[2]]
        for other in (radios[0], radios[2], radio):
            assert radios[1] not in channel.hearers(other)
            assert channel.hearers(other) == self._brute_hearers(channel, other)


@pytest.mark.parametrize("seed", (1, 10_000))
class TestAcceptanceRule:
    """A radio hands up only the frames its acceptance rule takes, and a
    change to its rule or handler decides the very next frame, whatever
    backoff stream the seed draws."""

    def _deploy(self, seed, count=3):
        sim = Simulator(seed=seed)
        channel = Channel(sim, PerfectLinks(), grid_spacing_m=1.0)
        radios = [channel.attach(make_mote(sim, i + 1, i, 0)) for i in range(count)]
        return sim, channel, radios

    @staticmethod
    def _send(sim, radio, frame):
        radio.send(frame)
        sim.run_until_idle()

    def test_unicast_reaches_its_addressee_and_promiscuous_radios(self, seed):
        sim, channel, (a, b, c, d) = self._deploy(seed, count=4)
        got = {radio.mote.id: [] for radio in (b, c, d)}
        for radio in (b, c, d):
            radio.set_receive_callback(got[radio.mote.id].append)
        b.set_acceptance(True)
        c.set_acceptance(True, {4})  # refuses mote 1; d stays promiscuous
        self._send(sim, a, Frame(1, 2, 0x10, b"u"))  # not c's: not refused
        self._send(sim, a, Frame(1, 3, 0x10, b"v"))
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"b"))
        payloads = {mote: [f.payload for f in frames] for mote, frames in got.items()}
        assert payloads == {2: [b"u", b"b"], 3: [], 4: [b"u", b"v", b"b"]}
        assert [r.frames_received for r in (b, c, d)] == [3, 3, 3]
        assert [r.frames_rejected for r in (b, c, d)] == [0, 2, 0]

    def test_rule_change_reaches_the_next_frame(self, seed):
        sim, channel, (a, b, _) = self._deploy(seed)
        got = []
        b.set_receive_callback(got.append)
        b.set_acceptance(True, {1})
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"1"))
        b.set_acceptance(True, {3})
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"2"))
        b.set_acceptance(True, {1, 3})
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"3"))
        assert [f.payload for f in got] == [b"1", b"3"]
        assert b.frames_rejected == 1

    def test_handler_installed_later_is_called(self, seed):
        sim, channel, (a, b, c) = self._deploy(seed)
        c.set_receive_callback(lambda frame: None)  # the hand-off runs
        b.set_acceptance(True, {1})
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"1"))
        got = []
        b.set_receive_callback(got.append)
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"2"))
        assert [f.payload for f in got] == [b"2"]
        assert b.frames_received == 2 and b.frames_rejected == 0

    def test_sender_is_the_frame_source_not_the_transmitter(self, seed):
        sim, channel, (a, b, _) = self._deploy(seed)
        got = []
        b.set_receive_callback(got.append)
        b.set_acceptance(True, {3})
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"own"))
        self._send(sim, a, Frame(3, BROADCAST_ID, 0x10, b"relayed"))
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"own"))
        assert [f.payload for f in got] == [b"relayed"]
        assert b.frames_rejected == 2

    def test_rejections_fold_back_on_detach(self, seed):
        """The tallies live on the radio: a detach leaves them standing,
        and a re-attached id starts from zero."""
        sim, channel, (a, b, _) = self._deploy(seed)
        b.set_receive_callback(lambda frame: None)
        b.set_acceptance(True, set())
        self._send(sim, a, Frame(1, BROADCAST_ID, 0x10, b"x"))
        assert (b.frames_received, b.frames_rejected) == (1, 1)
        channel.detach(2)
        assert (b.frames_received, b.frames_rejected) == (1, 1)
        fresh = channel.attach(make_mote(sim, 2, 1, 0))
        assert (fresh.frames_received, fresh.frames_rejected) == (0, 0)

    def test_promiscuous_radio_takes_every_sender(self, seed):
        sim, channel, (a, _, _) = self._deploy(seed)
        with pytest.raises(RadioError):
            a.set_acceptance(False, {2})
