"""Memoized per-pair packet reception rates.

Link models are pure functions of the two endpoint positions, and positions
only change through :meth:`Channel.move` / :meth:`Channel.detach` — so the
PRR of a (src, dst) pair is a perfect memoization target.  At 1000 nodes the
delivery hot path otherwise recomputes the same distance/PRR arithmetic for
every frame × receiver, which dominates profiles once the kernel itself is
lean.  The cache is a dict of dicts: the channel's per-receiver delivery
loop resolves a transmitter's row once per frame and then pays one dict
get per receiver.

The cache is invalidated *incrementally*, riding the same hooks that re-key
the channel's spatial-hash hearer index: moving or detaching a radio drops
exactly the cached pairs that radio participates in (O(cached degree), never
a scan), and swapping the link model bumps :attr:`version` and clears
everything.  ``prr_overrides`` never enter the cache — the channel consults
them first, so failure injection applies on the very next delivery even with
a warm cache (see the regression tests).

Counters pin the behavior: ``cache_hits`` / ``cache_misses`` count lookups,
``cache_invalidations`` counts invalidation events (per-radio drops and
full clears alike), so tests and benchmarks can assert both that the cache
is actually used and that churn invalidates no more than O(degree) state.
"""

from __future__ import annotations

from repro.radio.linkmodels import LinkModel, Position


class LinkCache:
    """Per-(src, dst) PRR memo for one :class:`~repro.radio.channel.Channel`.

    Entries are keyed on mote-id pairs and implicitly on the link-model
    *version*: replacing the model clears the cache and bumps ``version``,
    so a stale PRR can never survive a model swap.  Mutating a link model's
    parameters in place bypasses this — swap in a new model instead (the
    channel's ``link_model`` setter does the right thing).
    """

    __slots__ = (
        "_model",
        "_rows",
        "_sources_at",
        "version",
        "cache_hits",
        "cache_misses",
        "cache_invalidations",
    )

    def __init__(self, model: LinkModel):
        self._model = model
        #: src mote id -> {dst mote id -> prr}.
        self._rows: dict[int, dict[int, float]] = {}
        #: dst mote id -> src ids holding a cached entry toward it, so
        #: invalidating a radio touches only the pairs it participates in.
        self._sources_at: dict[int, set[int]] = {}
        self.version = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def row(self, src_id: int) -> dict[int, float]:
        """The mutable ``{dst id -> prr}`` row for one transmitter.

        The delivery loop resolves the row once per frame and fills misses
        itself (via :meth:`fill`), so the per-receiver cost is one dict get.
        """
        row = self._rows.get(src_id)
        if row is None:
            row = self._rows[src_id] = {}
        return row

    def fill(self, src_id: int, src_pos: Position, dst_id: int, dst_pos: Position) -> float:
        """Compute-and-store for a miss already observed on :meth:`row`."""
        self.cache_misses += 1
        prr = self._model.prr(src_pos, dst_pos)
        row = self._rows.get(src_id)
        if row is None:
            row = self._rows[src_id] = {}
        row[dst_id] = prr
        sources = self._sources_at.get(dst_id)
        if sources is None:
            sources = self._sources_at[dst_id] = set()
        sources.add(src_id)
        return prr

    # ------------------------------------------------------------------
    def invalidate(self, mote_id: int) -> None:
        """Drop every cached pair ``mote_id`` participates in (either end).

        O(cached entries involving the radio) — the reverse index keeps this
        from scanning other radios' rows.
        """
        self.cache_invalidations += 1
        row = self._rows.pop(mote_id, None)
        if row:
            for dst_id in row:
                sources = self._sources_at.get(dst_id)
                if sources is not None:
                    sources.discard(mote_id)
        sources = self._sources_at.pop(mote_id, None)
        if sources:
            for src_id in sources:
                row = self._rows.get(src_id)
                if row is not None:
                    row.pop(mote_id, None)

    def clear(self) -> None:
        """Forget everything (link-model swap)."""
        self.cache_invalidations += 1
        self._rows.clear()
        self._sources_at.clear()

    def swap_model(self, model: LinkModel) -> None:
        """Replace the link model: bump the version, drop all entries."""
        self._model = model
        self.version += 1
        self.clear()
