"""RNG-stream compatibility shim: vectorized draws, stdlib-identical stream.

The channel's randomness historically came from ``random.Random`` (CPython's
Mersenne Twister), one scalar ``random()`` call per receiver, in the
documented per-receiver *attach order*.  Every fixed-seed golden and every
committed baseline counter (frames, drops, collisions, delivery, coverage)
is downstream of that exact word sequence — so vectorizing the fan-out is
only free if the vector draw consumes the stream the same way.

:class:`CompatRng` is that shim.  It owns a numpy *legacy*
``RandomState`` — the same MT19937 core CPython uses — seeded to match
``random.Random`` and used for one thing only: a vectorized full-range
``uint32`` draw, which the legacy bounded-integer path serves as raw MT
words, one per element, in stream order.  Every draw the radio layer makes
is rebuilt from those words, **bit-identical** to ``random.Random``:

* **Seeding** — ``random.Random(s)`` for a string seeds via
  ``int.from_bytes(s + sha512(s), 'big')`` and feeds the integer to
  ``init_by_array`` as little-endian 32-bit words.  :func:`_seed_key`
  reproduces that key and :func:`_init_by_array` runs the reference
  seeding, so both generators start from the same 624-word state (installed
  with ``set_state`` — see the function's note on why numpy's own seeding
  front-end is not used).
* **The word buffer** — words are drawn :data:`BLOCK_WORDS` at a time into
  a buffer, and the double of every adjacent word pair is computed once
  per refill.  A refill keeps the words the last block left unread at the
  front of the new buffer, so a draw that straddles two blocks reads the
  same words, in the same order, as the stdlib.  The ``RandomState`` thus
  runs up to a block ahead of the stream: nothing may draw from or read
  ``CompatRng._state`` directly.
* **``random()``** — CPython builds each 53-bit double from two 32-bit
  words as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``; every step is exact in
  float64, so the precomputed doubles match bit for bit and a scalar draw
  is one buffer read.  ``random_vector(n)`` is one strided, read-only
  slice of the doubles: exactly the words of ``n`` scalar draws, in order.
  That is the whole compatibility contract: *one vector draw per fan-out
  is indistinguishable, stream-wise, from the old per-receiver loop*, so
  the delivery path can batch receivers in attach order and draw once.
* **``randint()`` / ``getrandbits()``** — reimplemented from CPython's
  ``Random`` source (``getrandbits`` word packing, ``_randbelow``'s
  rejection loop) on top of the buffered words; a draw of at most 32 bits
  (every MAC backoff) is one buffer read, a shift and a compare per try.
  MAC backoffs therefore perturb the stream exactly as before.

Equivalence is pinned by ``tests/test_rng_shim.py`` (mixed
``randint``/``random``/vector interleavings against ``random.Random`` over
120 seeds, and every draw kind straddling a refill) and, end-to-end, by the
delivery hypothesis property, the fixed-seed goldens and the committed
``mate`` table.
"""

from __future__ import annotations

import hashlib

from repro.radio._np import np

#: Full-range uint32 draw bound: numpy's legacy bounded-integer path applies
#: a mask of 0xFFFFFFFF and accepts every word, i.e. it returns raw MT words.
_WORD_BOUND = 1 << 32

#: Raw MT words :class:`CompatRng` draws from its ``RandomState`` per
#: refill.  A refill costs one vectorized draw and one pass pairing the
#: words into doubles, spread over the next ~2,000 scalar draws; the buffer
#: and its doubles hold ~24 KB.
BLOCK_WORDS = 2048


def _seed_key(material: str | bytes | int) -> list[int]:
    """The ``init_by_array`` key ``random.Random(material)`` would use.

    Strings/bytes follow CPython's version-2 seeding (append a sha512
    digest, read big-endian); integers are used by absolute value.  The
    resulting integer is split into little-endian 32-bit words — the same
    key layout CPython hands to ``init_by_array``.
    """
    if isinstance(material, str):
        material = material.encode()
    if isinstance(material, (bytes, bytearray)):
        data = bytes(material)
        seed_int = int.from_bytes(data + hashlib.sha512(data).digest(), "big")
    elif isinstance(material, int):
        seed_int = abs(material)
    else:
        raise TypeError(f"unsupported seed material: {type(material).__name__}")
    words = []
    while seed_int:
        words.append(seed_int & 0xFFFFFFFF)
        seed_int >>= 32
    if not words:
        words.append(0)
    return words


def _init_by_array(key: list[int]) -> list[int]:
    """The reference MT19937 array seeding, exactly as CPython runs it.

    Done in Python (once per stream, ~2 ms) rather than through numpy's
    seeding front-end: the legacy ``RandomState(ndarray)`` path squeezes a
    one-element key down to scalar ``init_genrand`` seeding, which diverges
    from CPython for any seed that fits a single 32-bit word.  Computing the
    624-word state ourselves and installing it via ``set_state`` sidesteps
    every such front-end subtlety — only the *generation* algorithm (frozen
    by NEP 19) is left to numpy.
    """
    mt = [0] * 624
    mt[0] = 19650218
    for i in range(1, 624):
        mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & 0xFFFFFFFF
    i, j = 1, 0
    for _ in range(max(624, len(key))):
        mt[i] = (
            (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525)) + key[j] + j
        ) & 0xFFFFFFFF
        i += 1
        j += 1
        if i >= 624:
            mt[0] = mt[623]
            i = 1
        if j >= len(key):
            j = 0
    for _ in range(623):
        mt[i] = ((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941)) - i) & 0xFFFFFFFF
        i += 1
        if i >= 624:
            mt[0] = mt[623]
            i = 1
    mt[0] = 0x80000000
    return mt


class CompatRng:
    """A ``random.Random``-compatible stream with vector draws.

    Only the methods the radio layer uses are provided — ``random``,
    ``randint``, ``getrandbits``, and the new ``random_vector`` — each
    consuming the underlying MT19937 stream exactly as its stdlib
    counterpart would.

    Every draw is served from a buffer of raw MT words (``_words``) that is
    refilled :data:`BLOCK_WORDS` at a time from the ``RandomState``, with the
    double of every adjacent word pair (``_doubles[i]`` is built from words
    ``i`` and ``i + 1``) computed once per refill.  The words a refill finds
    unread are carried to the front of the new buffer, so a draw that
    straddles a refill reads the same words the stdlib would.  The
    ``RandomState`` therefore runs up to a block *ahead* of the stream:
    nothing may draw from, or read the state of, ``_state`` directly.
    """

    __slots__ = (
        "_state", "_words", "_doubles", "_pos", "_size", "_word_at", "_double_at"
    )

    def __init__(self, seed_material: str | bytes | int):
        self._state = np.random.RandomState()
        mt = np.array(_init_by_array(_seed_key(seed_material)), dtype=np.uint32)
        # Position 624 = "regenerate before the first draw", matching a
        # freshly seeded CPython Random.
        self._state.set_state(("MT19937", mt, 624, 0, 0.0))
        # An empty buffer: the first draw fills it, so building a channel
        # draws nothing.
        self._words = np.empty(0, dtype=np.uint32)
        self._pos = self._size = 0

    def _refill(self, need: int) -> None:
        """Append a block of fresh words to the unread ones (more than a
        block if ``need`` words would not be unread otherwise), then pair
        every adjacent two into a double."""
        unread = self._words[self._pos :]
        fresh = self._state.randint(
            0, _WORD_BOUND, size=max(BLOCK_WORDS, need - unread.size), dtype=np.uint32
        )
        words = np.concatenate((unread, fresh))
        # CPython's random(): (a >> 5) * 2**26 + (b >> 6), scaled by 2**-53.
        # Every step is exact in float64, so the doubles are bit-identical.
        doubles = ((words[:-1] >> 5) * 67108864.0 + (words[1:] >> 6)) * (
            1.0 / 9007199254740992.0
        )
        doubles.flags.writeable = False  # vector draws hand out views of it
        self._words = words
        self._doubles = doubles
        self._pos = 0
        self._size = words.size
        self._word_at = words.item
        self._double_at = doubles.item

    def _next_word(self) -> int:
        pos = self._pos
        if pos >= self._size:
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return self._word_at(pos)

    # ------------------------------------------------------------------
    # Doubles
    # ------------------------------------------------------------------
    def random(self) -> float:
        """The next double in [0, 1) — bit-identical to ``Random.random``."""
        pos = self._pos
        if pos + 2 > self._size:
            self._refill(2)
            pos = 0
        self._pos = pos + 2
        return self._double_at(pos)

    def random_vector(self, count: int) -> "np.ndarray":
        """``count`` doubles in one draw, consuming the stream exactly like
        ``count`` successive :meth:`random` calls.

        This is the fan-out contract: the delivery path orders receivers by
        attach sequence and draws one vector, so element ``i`` is the very
        double receiver ``i`` would have drawn from the scalar loop.  The
        result is a read-only strided view of the buffered doubles.
        """
        pos = self._pos
        need = 2 * count
        if pos + need > self._size:
            self._refill(need)
            pos = 0
        self._pos = pos + need
        return self._doubles[pos : pos + need : 2]

    # ------------------------------------------------------------------
    # Integers (CPython's Random, re-derived over raw MT words)
    # ------------------------------------------------------------------
    def getrandbits(self, bits: int) -> int:
        """``bits`` random bits, packed exactly like ``Random.getrandbits``:
        successive 32-bit words fill the result little-endian, the last word
        truncated from its high end."""
        if bits <= 0:
            raise ValueError("number of bits must be greater than zero")
        word = self._next_word
        if bits <= 32:
            return word() >> (32 - bits)
        result = 0
        shift = 0
        while bits > 32:
            result |= word() << shift
            shift += 32
            bits -= 32
        return result | ((word() >> (32 - bits)) << shift)

    def _randbelow(self, upper: int) -> int:
        """CPython's ``_randbelow_with_getrandbits``, rejection loop and all
        — the loop's extra word consumption is part of the stream contract."""
        if not upper:
            return 0
        bits = upper.bit_length()
        if bits > 32:
            value = self.getrandbits(bits)
            while value >= upper:
                value = self.getrandbits(bits)
            return value
        # One word per try (the MAC's backoff windows all land here):
        # ``getrandbits(bits)`` inlined to a buffer read and a shift.
        shift = 32 - bits
        pos = self._pos
        while True:
            if pos >= self._size:
                self._pos = pos  # every word read: the refill carries none
                self._refill(1)
                pos = 0
            value = self._word_at(pos) >> shift
            pos += 1
            if value < upper:
                self._pos = pos
                return value

    def randint(self, low: int, high: int) -> int:
        """Inclusive-range integer, stream-identical to ``Random.randint``."""
        width = high + 1 - low
        if width <= 0:
            raise ValueError(f"empty range in randint({low}, {high})")
        return low + self._randbelow(width)
