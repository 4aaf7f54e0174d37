"""The RNG-stream compatibility shim: CompatRng == random.Random, bit for bit.

Every fixed-seed golden in the suite depends on the channel's MT19937 word
sequence, so these tests pin the shim against the stdlib directly: same
seeding, same doubles, same integers, and — the point of the exercise —
vector draws that consume the stream exactly like the scalar loop they
replace.
"""

import random

import pytest

from repro.radio import Channel, CompatRng, Frame, PerfectLinks
from repro.radio.rngshim import BLOCK_WORDS
from repro.sim import Simulator, ms
from tests.test_radio import make_mote

_SEEDS = ["0/channel", "7/channel", "weird seed/with/slashes", ""]


class TestStreamEquivalence:
    def test_random_matches_stdlib(self):
        for seed in _SEEDS:
            ours, theirs = CompatRng(seed), random.Random(seed)
            assert [ours.random() for _ in range(200)] == [
                theirs.random() for _ in range(200)
            ]

    def test_integer_seeds_match_stdlib(self):
        for seed in (0, 1, 12345, -99, 2**64 + 17):
            ours, theirs = CompatRng(seed), random.Random(seed)
            assert [ours.random() for _ in range(50)] == [
                theirs.random() for _ in range(50)
            ]

    def test_getrandbits_matches_stdlib(self):
        ours, theirs = CompatRng("bits"), random.Random("bits")
        for bits in (1, 5, 31, 32, 33, 53, 64, 100, 513):
            assert ours.getrandbits(bits) == theirs.getrandbits(bits)

    def test_randint_matches_stdlib(self):
        ours, theirs = CompatRng("ints"), random.Random("ints")
        # Mixed widths, including the width-1 range whose rejection loop
        # still burns draws, and the MAC's real backoff windows.
        for low, high in [(0, 1), (5, 5), (400, 12_800), (800, 25_600), (0, 2**40)]:
            for _ in range(20):
                assert ours.randint(low, high) == theirs.randint(low, high)

    def test_mixed_stream_matches_stdlib(self):
        """Interleaved doubles and integers stay in lockstep — the channel's
        actual usage pattern (backoff randint between loss draws)."""
        ours, theirs = CompatRng("mixed"), random.Random("mixed")
        driver = random.Random(42)  # stream-shape chooser, not under test
        for _ in range(500):
            op = driver.randrange(3)
            if op == 0:
                assert ours.random() == theirs.random()
            elif op == 1:
                assert ours.randint(400, 12_800) == theirs.randint(400, 12_800)
            else:
                bits = driver.randint(1, 64)
                assert ours.getrandbits(bits) == theirs.getrandbits(bits)

    def test_vector_draw_consumes_stream_like_scalars(self):
        """The fan-out contract: ``random_vector(n)`` equals n scalar draws,
        and the stream *continues* identically afterwards — so a frame can
        take the vector path while the next takes the scalar path."""
        vec, scalar = CompatRng("vector"), random.Random("vector")
        for count in (1, 2, 7, 25, 1000):
            drawn = vec.random_vector(count)
            assert drawn.tolist() == [scalar.random() for _ in range(count)]
            # Interleave scalar traffic between vector draws.
            assert vec.random() == scalar.random()
            assert vec.randint(800, 25_600) == scalar.randint(800, 25_600)


def _at_unread(seed, unread):
    """A shim and a stdlib twin with ``unread`` words left in the shim's
    first block: draws from here on straddle its first refill."""
    ours, theirs = CompatRng(seed), random.Random(seed)
    for _ in range(BLOCK_WORDS - unread):
        assert ours.getrandbits(32) == theirs.getrandbits(32)
    return ours, theirs


def _assert_lockstep(ours, theirs, draws=8):
    """The two streams continue identically past the draw under test."""
    for _ in range(draws):
        assert ours.random() == theirs.random()
        assert ours.randint(800, 25_600) == theirs.randint(800, 25_600)


class TestWordBuffer:
    """Every draw is served from a buffer of raw MT words refilled a block at
    a time; the words a refill finds unread carry over.  A draw that needs
    words from both sides of a refill must read them in stream order."""

    @pytest.mark.parametrize("unread", range(5))
    def test_each_draw_kind_straddles_a_refill(self, unread):
        kinds = [
            lambda rng: rng.random(),
            lambda rng: rng.randint(400, 12_800),
            lambda rng: rng.getrandbits(70),  # three words per draw
            lambda rng: rng.random_vector(5).tolist(),
        ]
        twins = [
            lambda rng: rng.random(),
            lambda rng: rng.randint(400, 12_800),
            lambda rng: rng.getrandbits(70),
            lambda rng: [rng.random() for _ in range(5)],
        ]
        for draw, twin in zip(kinds, twins):
            ours, theirs = _at_unread("straddle", unread)
            for _ in range(3):
                assert draw(ours) == twin(theirs)
            _assert_lockstep(ours, theirs)

    @pytest.mark.parametrize("unread", (0, 1, 7))
    def test_vector_draw_longer_than_a_block(self, unread):
        ours, theirs = _at_unread("long vector", unread)
        count = BLOCK_WORDS + 3  # 2 words per double: over two blocks' worth
        assert ours.random_vector(count).tolist() == [
            theirs.random() for _ in range(count)
        ]
        _assert_lockstep(ours, theirs)

    @pytest.mark.parametrize("unread", range(4))
    def test_width_one_rejection_loop_across_a_refill(self, unread):
        # randint(5, 5) draws 1-bit words until one is 0: every rejected
        # word is consumed, including the ones that trigger a refill.
        ours, theirs = _at_unread("width one", unread)
        for _ in range(6):
            assert ours.randint(5, 5) == theirs.randint(5, 5) == 5
        _assert_lockstep(ours, theirs)

    def test_mixed_operations_over_many_seeds(self):
        for seed in range(120):
            material = f"{seed}/channel"
            ours, theirs = CompatRng(material), random.Random(material)
            driver = random.Random(seed)  # stream-shape chooser, not under test
            for _ in range(400):
                op = driver.randrange(5)
                if op == 0:
                    assert ours.random() == theirs.random()
                elif op == 1:
                    assert ours.randint(400, 12_800) == theirs.randint(400, 12_800)
                elif op == 2:
                    assert ours.getrandbits(70) == theirs.getrandbits(70)
                elif op == 3:
                    count = driver.randint(0, 60)
                    assert ours.random_vector(count).tolist() == [
                        theirs.random() for _ in range(count)
                    ]
                else:
                    assert ours.randint(5, 5) == theirs.randint(5, 5)

    def test_vector_draw_is_read_only(self):
        # The vector is a view into the shared buffer: a caller writing
        # through it would corrupt later draws.
        rng = CompatRng("read only")
        drawn = rng.random_vector(4)
        assert not drawn.flags.writeable
        with pytest.raises(ValueError):
            drawn[0] = 0.5


class TestChannelStreamCompatibility:
    """End-to-end: the vectorized channel replays the scalar channel's
    fixed-seed history exactly, override and failure paths included."""

    def _deploy(self, seed, vector_min):
        sim = Simulator(seed=seed)
        channel = Channel(sim, PerfectLinks(range_m=100.0), grid_spacing_m=1.0)
        channel.vector_fanout_min = vector_min
        log = []
        radios = []
        for index in range(10):
            radio = channel.attach(make_mote(sim, index + 1, index % 4, index // 4))
            radio.set_receive_callback(
                lambda frame, me=index: log.append((me, frame.src, frame.payload))
            )
            radios.append(radio)
        return sim, channel, radios, log

    def _exercise(self, seed, vector_min):
        sim, channel, radios, log = self._deploy(seed, vector_min)
        radios[0].send(Frame(1, 0xFFFF, 0x10, b"a"))
        sim.run_until_idle()
        # Override installed mid-flight (the PR 5 regression path).
        radios[1].send(Frame(2, 0xFFFF, 0x10, b"b"))
        sim.run(duration=ms(1))
        channel.prr_overrides[(2, 5)] = 0.0
        sim.run_until_idle()
        # Failure injection mid-flight: a receiver powers down.
        radios[2].send(Frame(3, 0xFFFF, 0x10, b"c"))
        sim.run(duration=ms(1))
        radios[7].enabled = False
        sim.run_until_idle()
        radios[7].enabled = True
        del channel.prr_overrides[(2, 5)]
        radios[3].send(Frame(4, 0xFFFF, 0x10, b"d"))
        sim.run_until_idle()
        return log, (
            channel.frames_transmitted,
            channel.prr_drops,
            channel.collisions,
            channel.link_cache.cache_hits,
            channel.link_cache.cache_misses,
        )

    def test_vector_and_scalar_paths_are_bit_identical(self):
        for seed in range(4):
            vectorized = self._exercise(seed, vector_min=1)
            scalar = self._exercise(seed, vector_min=10_000)
            assert vectorized == scalar

    def test_channel_stream_matches_legacy_stdlib_stream(self):
        """The channel's CompatRng is seeded exactly like the pre-PR 6
        ``sim.rng("channel")`` stream, so historical goldens keep replaying."""
        sim = Simulator(seed=3)
        channel = Channel(sim, PerfectLinks())
        twin = random.Random("3/channel")
        assert [channel.rng.random() for _ in range(5)] == [
            twin.random() for _ in range(5)
        ]
        assert channel.rng.randint(400, 12_800) == twin.randint(400, 12_800)
