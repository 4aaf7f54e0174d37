"""The channel's per-radio bookkeeping that the hearer query reads: positions,
attach order, detach and re-attach of a mote id."""

from repro.radio import Channel, PerfectLinks
from repro.sim import Simulator
from tests.test_radio import make_mote


class TestChannelMirrors:
    """Each radio's position and attach sequence live on the radio itself,
    written only by the channel's attach/move/detach hooks."""

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

    def test_attach_and_move_mirror_positions(self):
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

    def test_detach_frees_the_slot(self):
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

    def test_attach_seq_mirrors_attach_order(self):
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
