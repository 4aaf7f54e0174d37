"""The RadioField array mirror: slot lifecycle, sync hooks, dense PRR rows."""

import numpy as np
import pytest

from repro.radio import Channel, Frame, PerfectLinks, RadioField, UniformLossLinks
from repro.radio.field import ELIGIBLE_IDLE, ELIGIBLE_NEVER
from repro.sim import Simulator, ms
from tests.test_radio import make_mote


class TestSlotLifecycle:
    def test_allocate_seeds_state_and_maps_both_ways(self):
        field = RadioField(capacity=2)
        slot = field.allocate(7, (1.5, 2.5))
        assert field.slot_of[7] == slot
        assert field.mote_ids[slot] == 7
        assert field.positions[slot].tolist() == [1.5, 2.5]
        assert field.eligible_key[slot] == ELIGIBLE_IDLE  # powered, not sending
        assert len(field) == 1

    def test_duplicate_allocate_rejected(self):
        field = RadioField()
        field.allocate(1, (0.0, 0.0))
        with pytest.raises(ValueError):
            field.allocate(1, (1.0, 1.0))

    def test_release_resets_state_and_recycles_lifo(self):
        field = RadioField(capacity=4)
        a = field.allocate(1, (0.0, 0.0))
        field.begin_tx(a, 100)
        field.release(1)
        assert 1 not in field.slot_of
        assert field.eligible_key[a] == ELIGIBLE_NEVER
        assert field.mote_ids[a] == -1
        # LIFO recycling keeps the arrays dense under churn.
        assert field.allocate(2, (3.0, 3.0)) == a

    def test_growth_preserves_slots_and_resizes_scratch(self):
        field = RadioField(capacity=2)
        slots = [field.allocate(i, (float(i), 0.0)) for i in range(1, 8)]
        assert field.capacity >= 7
        assert field.scratch_bool.size == field.capacity
        assert field.scratch_prr.size == field.capacity
        assert np.all(np.isnan(field.scratch_prr))
        for mote_id, slot in zip(range(1, 8), slots):
            assert field.slot_of[mote_id] == slot
            assert field.positions[slot, 0] == float(mote_id)

    def test_eligible_key_tracks_power_and_tx_state(self):
        # The fused comparand: ``eligible_key[slot] >= frame_end`` answers
        # "powered and not mid-transmission" in one gather.
        field = RadioField(capacity=2)
        slot = field.allocate(1, (0.0, 0.0))
        assert field.eligible_key[slot] == ELIGIBLE_IDLE
        field.begin_tx(slot, 100)
        assert field.eligible_key[slot] == 100  # own tx start: < any overlap end
        field.set_enabled(slot, False, 100)
        assert field.eligible_key[slot] == ELIGIBLE_NEVER
        field.set_enabled(slot, True, 100)
        assert field.eligible_key[slot] == 100  # re-enabled mid-own-tx
        field.end_tx(slot)
        assert field.eligible_key[slot] == ELIGIBLE_IDLE
        field.set_enabled(slot, False, None)
        field.begin_tx(slot, 300)
        assert field.eligible_key[slot] == ELIGIBLE_NEVER  # disabled wins
        field.end_tx(slot)
        assert field.eligible_key[slot] == ELIGIBLE_NEVER
        field.set_enabled(slot, True, None)
        assert field.eligible_key[slot] == ELIGIBLE_IDLE

    def test_release_resets_sense_and_reception_state(self):
        field = RadioField(capacity=2)
        slot = field.allocate(1, (0.0, 0.0), attach_seq=9)
        assert field.attach_seq[slot] == 9
        field.frames_received[slot] = 3
        field.release(1)
        assert field.eligible_key[slot] == ELIGIBLE_NEVER
        assert field.attach_seq[slot] == -1
        assert field.frames_received[slot] == 0
        # A recycled slot starts clean for the next mote.
        fresh = field.allocate(2, (1.0, 1.0), attach_seq=10)
        assert fresh == slot
        assert field.eligible_key[fresh] == ELIGIBLE_IDLE
        assert field.attach_seq[fresh] == 10

    def test_growth_extends_sense_arrays_with_neutral_fills(self):
        field = RadioField(capacity=2)
        for i in range(1, 6):
            field.allocate(i, (float(i), 0.0), attach_seq=i)
        assert field.eligible_key.size == field.capacity
        free = [s for s in range(field.capacity) if s not in field.slot_of.values()]
        assert all(field.eligible_key[s] == ELIGIBLE_NEVER for s in free)
        assert all(field.attach_seq[s] == -1 for s in free)
        assert all(field.frames_received[s] == 0 for s in free)

    def test_slots_of_gathers_in_order(self):
        field = RadioField()
        for i in (3, 1, 2):
            field.allocate(i, (0.0, 0.0))
        slots = field.slots_of([1, 2, 3])
        assert slots.tolist() == [field.slot_of[1], field.slot_of[2], field.slot_of[3]]


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

    def test_enabled_setter_mirrors_power_state(self):
        sim, channel, radios = self._deploy()
        field = channel.field
        slot = radios[0]._slot
        radios[0].enabled = False
        assert field.eligible_key[slot] == ELIGIBLE_NEVER
        radios[0].enabled = True
        assert field.eligible_key[slot] == ELIGIBLE_IDLE

    def test_tx_interval_mirrors_current_transmission(self):
        sim, channel, radios = self._deploy()
        field = channel.field
        slot = radios[0]._slot
        began, ended = [], []
        original_begin, original_end = channel.begin_transmission, channel.end_transmission

        def spy_begin(tx):
            began.append(int(field.eligible_key[slot]) == tx.start)
            original_begin(tx)

        def spy_end(tx):
            ended.append(int(field.eligible_key[slot]))
            original_end(tx)

        channel.begin_transmission = spy_begin
        channel.end_transmission = spy_end
        radios[0].send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        # In flight the key is the sender's own start; at its end-of-frame
        # the key is already idle — exactly like Radio._current_tx, which
        # clears first.
        assert began == [True]
        assert ended == [ELIGIBLE_IDLE]
        # A power cycle mid-flight restores the in-flight start.
        radios[1].send(Frame(2, 1, 0x10, b"y"))
        while not channel._on_air:
            sim.run(duration=ms(1))
        start = channel._on_air[0].start
        radios[1].enabled = False
        radios[1].enabled = True
        assert field.eligible_key[radios[1]._slot] == start
        sim.run_until_idle()

    def test_detach_frees_the_slot(self):
        sim, channel, radios = self._deploy()
        field = channel.field
        slot = radios[2]._slot
        channel.detach(3)
        assert radios[2]._slot is None
        assert 3 not in field.slot_of
        assert field.eligible_key[slot] == ELIGIBLE_NEVER

    def test_attach_seq_mirrors_attach_order(self):
        sim, channel, radios = self._deploy()
        field = channel.field
        seqs = [int(field.attach_seq[r._slot]) for r in radios]
        assert seqs == sorted(seqs)
        assert seqs == [r._attach_seq for r in radios]

    def test_frames_received_folds_back_on_detach(self):
        sim, channel, radios = self._deploy()
        channel.vector_fanout_min = 1  # tally receptions in the field array
        radios[0].send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert radios[1].frames_received == 1
        assert channel.field.frames_received[radios[1]._slot] == 1
        channel.detach(2)
        # The per-slot tally folded into the radio before the slot reset.
        assert radios[1].frames_received == 1

    def test_reattached_id_gets_fresh_state(self):
        sim, channel, radios = self._deploy()
        channel.detach(2)
        radio = channel.attach(make_mote(sim, 2, 7, 7))
        slot = radio._slot
        assert channel.field.positions[slot].tolist() == [7.0, 7.0]
        assert channel.field.eligible_key[slot] == ELIGIBLE_IDLE


class TestLinkCacheRowArrays:
    def _deploy(self):
        sim = Simulator(seed=0)
        channel = Channel(sim, UniformLossLinks(prr=0.7), grid_spacing_m=1.0)
        radios = [channel.attach(make_mote(sim, i + 1, i, 0)) for i in range(3)]
        for radio in radios:
            radio.set_receive_callback(lambda f: None)
        return sim, channel, radios

    def test_row_array_mirrors_dict_row(self):
        sim, channel, radios = self._deploy()
        cache = channel.link_cache
        arr = cache.row_array(1)
        assert np.all(np.isnan(arr))  # nothing resolved yet
        cache.fill(1, radios[0].position, 2, radios[1].position)
        arr = cache.row_array(1)
        assert arr[channel.field.slot_of[2]] == 0.7
        assert np.isnan(arr[channel.field.slot_of[3]])

    def test_fill_patches_a_cached_array_in_place(self):
        sim, channel, radios = self._deploy()
        cache = channel.link_cache
        arr = cache.row_array(1)
        cache.fill(1, radios[0].position, 3, radios[2].position)
        assert cache.row_array(1) is arr  # same array, patched
        assert arr[channel.field.slot_of[3]] == 0.7

    def test_invalidation_drops_arrays_on_both_ends(self):
        sim, channel, radios = self._deploy()
        cache = channel.link_cache
        cache.fill(1, radios[0].position, 2, radios[1].position)
        cache.fill(2, radios[1].position, 1, radios[0].position)
        cache.row_array(1), cache.row_array(2)
        channel.move(2, (9.0, 0.0))  # invalidates every pair involving 2
        assert np.all(np.isnan(cache.row_array(1)))
        assert np.all(np.isnan(cache.row_array(2)))

    def test_row_array_rebuilds_after_field_growth(self):
        sim, channel, radios = self._deploy()
        cache = channel.link_cache
        cache.fill(1, radios[0].position, 2, radios[1].position)
        small = cache.row_array(1)
        mote_id = 100
        while channel.field.capacity == small.size:  # force a growth cycle
            mote_id += 1
            channel.attach(make_mote(sim, mote_id, 5, 5))
        grown = cache.row_array(1)
        assert grown.size == channel.field.capacity > small.size
        assert grown[channel.field.slot_of[2]] == 0.7
