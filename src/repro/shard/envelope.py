"""Serializable seam messages: transmission envelopes and lookahead rounds.

The only state that crosses a shard boundary is *radio frames on the air*:
a boundary mote's transmission is captured as a :class:`TxEnvelope` (plain
ints and bytes — picklable, cheap) and replayed through the adjacent shard's
ghost radio with the exact same airtime window.  Everything else a mote does
is region-local.

One :class:`Round` per seam neighbor per protocol round carries the captured
envelopes plus the shard's lookahead *grant*: a promise that no boundary
transmission of this shard starts before the granted tick.  A shard that has
reached the end of simulated time sends a final round with ``done=True`` and
an infinite grant, releasing its neighbors for good.
"""

from __future__ import annotations

from dataclasses import dataclass

#: An effectively-infinite lookahead grant (a done shard, or no constraint).
GRANT_FOREVER = 1 << 62


@dataclass(frozen=True)
class TxEnvelope:
    """One boundary-mote transmission, serialized for replay.

    ``shard``/``seq`` identify the capture (seq increments per source shard),
    and together with ``start`` define the deterministic merge order at the
    receiver: ``(start, shard, seq)``.  ``mote`` is the transmitting radio's
    owner (the ghost to replay through); ``src`` is the frame header's sender
    id (identical in practice, kept separate so the replayed frame is a
    field-for-field reconstruction).
    """

    shard: int
    seq: int
    start: int
    end: int
    mote: int
    src: int
    dest: int
    am_type: int
    payload: bytes
    #: Fault injection: the frame was corrupted at its home region's
    #: transmitter, so its ghost replay must jam the seam without delivering.
    corrupted: bool = False

    @property
    def merge_key(self) -> tuple[int, int, int]:
        return (self.start, self.shard, self.seq)


@dataclass(frozen=True)
class Round:
    """One per-neighbor protocol round: lookahead grant + captured frames."""

    shard: int
    grant: int
    done: bool
    envelopes: tuple[TxEnvelope, ...] = ()

