"""The local tuple space: a 600-byte linear arena (paper §3.2).

"The tuple space manager dynamically allocates memory for each tuple.  By
default, it is allocated 600 bytes ... the 600-bytes are allocated linearly.
When a tuple is removed, all following tuples are shifted forward.  While
this may result in more memory swapping, it is simple."

We keep that exact design — including its cost structure.  Every operation
reports the bytes it scanned and shifted in :class:`TsWork`, which the VM's
cycle model converts into execution latency; this is how Figure 12's
"tuple-space operations are the most expensive class" emerges from the
implementation rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TupleSpaceError, TupleSpaceFullError
from repro.agilla.tuples import AgillaTuple

DEFAULT_ARENA_BYTES = 600


@dataclass
class TsWork:
    """Memory traffic performed by one tuple-space operation."""

    bytes_scanned: int = 0
    bytes_shifted: int = 0
    bytes_written: int = 0


class TupleSpace:
    """Linear-arena tuple storage with first-match semantics."""

    def __init__(self, capacity: int = DEFAULT_ARENA_BYTES):
        self.capacity = capacity
        self._entries: list[AgillaTuple] = []
        #: Bytes stored, kept as a running total by every insert and removal.
        self.used_bytes = 0
        self.last_work = TsWork()
        # Statistics.
        self.inserts = 0
        self.removals = 0

    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def tuples(self) -> list[AgillaTuple]:
        """Snapshot of stored tuples in arena order (oldest first)."""
        return list(self._entries)

    # ------------------------------------------------------------------
    def out(self, tup: AgillaTuple) -> None:
        """Insert a tuple at the end of the arena."""
        if tup.is_template:
            raise TupleSpaceError("cannot insert a template")
        if tup.wire_size > self.free_bytes:
            # The failed insert scanned and wrote nothing.
            self.last_work = TsWork()
            raise TupleSpaceFullError(
                f"arena full: need {tup.wire_size} B, have {self.free_bytes} B"
            )
        self._entries.append(tup)
        self.used_bytes += tup.wire_size
        self.inserts += 1
        self.last_work = TsWork(bytes_written=tup.wire_size)

    def rdp(self, template: AgillaTuple) -> AgillaTuple | None:
        """Probe: copy of the first matching tuple, or None."""
        scanned = 0
        for entry in self._entries:
            scanned += entry.wire_size
            if template.matches(entry):
                self.last_work = TsWork(bytes_scanned=scanned)
                return entry
        self.last_work = TsWork(bytes_scanned=scanned)
        return None

    def inp(self, template: AgillaTuple) -> AgillaTuple | None:
        """Probe-and-remove: first matching tuple, or None.

        Removal shifts every byte stored after the match (linear arena).
        """
        scanned = 0
        for index, entry in enumerate(self._entries):
            scanned += entry.wire_size
            if template.matches(entry):
                trailing = self.used_bytes - scanned
                del self._entries[index]
                self.used_bytes -= entry.wire_size
                self.removals += 1
                self.last_work = TsWork(
                    bytes_scanned=scanned, bytes_shifted=trailing
                )
                return entry
        self.last_work = TsWork(bytes_scanned=scanned)
        return None

    def count(self, template: AgillaTuple) -> int:
        """Number of stored tuples matching the template (``tcount``)."""
        scanned = 0
        matches = 0
        for entry in self._entries:
            scanned += entry.wire_size
            if template.matches(entry):
                matches += 1
        self.last_work = TsWork(bytes_scanned=scanned)
        return matches

    # ------------------------------------------------------------------
    def remove_all(self, template: AgillaTuple) -> int:
        """Remove every matching tuple; returns how many were removed.

        Used by the middleware for context-tuple maintenance (not exposed as
        an agent instruction).
        """
        before = len(self._entries)
        kept = [entry for entry in self._entries if not template.matches(entry)]
        removed = before - len(kept)
        if removed:
            self._entries = kept
            self.used_bytes = sum(entry.wire_size for entry in kept)
            self.removals += removed
        self.last_work = TsWork(bytes_scanned=self.used_bytes)
        return removed
