"""The RadioField array mirror: slot lifecycle and the channel hooks that write it."""

import pytest

from repro.radio import Channel, PerfectLinks, RadioField
from repro.sim import Simulator
from tests.test_radio import make_mote


class TestSlotLifecycle:
    def test_allocate_seeds_state_and_maps_both_ways(self):
        field = RadioField(capacity=2)
        slot = field.allocate(7, (1.5, 2.5), attach_seq=4)
        assert field.slot_of[7] == slot
        assert field.mote_ids[slot] == 7
        assert field.positions[slot].tolist() == [1.5, 2.5]
        assert field.attach_seq[slot] == 4
        assert len(field) == 1

    def test_duplicate_allocate_rejected(self):
        field = RadioField()
        field.allocate(1, (0.0, 0.0))
        with pytest.raises(ValueError):
            field.allocate(1, (1.0, 1.0))

    def test_release_resets_state_and_recycles_lifo(self):
        field = RadioField(capacity=4)
        a = field.allocate(1, (0.0, 0.0), attach_seq=9)
        field.release(1)
        assert 1 not in field.slot_of
        assert field.mote_ids[a] == -1
        assert field.attach_seq[a] == -1
        # LIFO recycling keeps the arrays dense under churn, and a recycled
        # slot starts clean for the next mote.
        assert field.allocate(2, (3.0, 3.0), attach_seq=10) == a
        assert field.mote_ids[a] == 2
        assert field.attach_seq[a] == 10

    def test_growth_preserves_slots_and_resizes_columns(self):
        field = RadioField(capacity=2)
        slots = [field.allocate(i, (float(i), 0.0), attach_seq=i) for i in range(1, 8)]
        assert field.capacity >= 7
        assert len(field.positions) == field.capacity
        assert field.attach_seq.size == field.mote_ids.size == field.capacity
        for mote_id, slot in zip(range(1, 8), slots):
            assert field.slot_of[mote_id] == slot
            assert field.positions[slot, 0] == float(mote_id)
            assert field.attach_seq[slot] == mote_id

    def test_growth_extends_sense_arrays_with_neutral_fills(self):
        # The columns the hearer query (and so carrier sense) reads: a
        # slot added by growth must read as free until it is allocated.
        field = RadioField(capacity=2)
        for i in range(1, 6):
            field.allocate(i, (float(i), 0.0), attach_seq=i)
        free = [s for s in range(field.capacity) if s not in field.slot_of.values()]
        assert free
        assert all(field.attach_seq[s] == -1 for s in free)
        assert all(field.mote_ids[s] == -1 for s in free)


class TestChannelMirrors:
    """The field is written through exactly the channel's existing hooks."""

    def _deploy(self, count=3, link_model=None):
        sim = Simulator(seed=0)
        channel = Channel(sim, link_model or PerfectLinks(), grid_spacing_m=1.0)
        radios = [
            channel.attach(make_mote(sim, i + 1, i, 0)) for i in range(count)
        ]
        return sim, channel, radios

    def test_attach_and_move_mirror_positions(self):
        sim, channel, radios = self._deploy()
        field = channel.field
        slot = radios[1]._slot
        assert field.positions[slot].tolist() == list(radios[1].position)
        channel.move(2, (9.0, 4.0))
        assert field.positions[slot].tolist() == [9.0, 4.0]
        assert radios[1].position == (9.0, 4.0)

    def test_detach_frees_the_slot(self):
        sim, channel, radios = self._deploy()
        field = channel.field
        slot = radios[2]._slot
        channel.detach(3)
        assert radios[2]._slot is None
        assert 3 not in field.slot_of
        assert field.mote_ids[slot] == -1

    def test_attach_seq_mirrors_attach_order(self):
        sim, channel, radios = self._deploy()
        field = channel.field
        seqs = [int(field.attach_seq[r._slot]) for r in radios]
        assert seqs == sorted(seqs)
        assert seqs == [r._attach_seq for r in radios]

    def test_reattached_id_gets_fresh_state(self):
        sim, channel, radios = self._deploy()
        channel.detach(2)
        radio = channel.attach(make_mote(sim, 2, 7, 7))
        slot = radio._slot
        assert channel.field.positions[slot].tolist() == [7.0, 7.0]
        assert channel.field.attach_seq[slot] == radio._attach_seq > radios[2]._attach_seq
