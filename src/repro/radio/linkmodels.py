"""Wireless link quality models.

A link model answers two questions about a (sender, receiver) position pair:

* :meth:`in_range` — is the sender *audible* (for carrier sense and
  interference) at the receiver?
* :meth:`prr` — with what probability is an individual in-range frame
  received intact (packet reception rate)?

The defaults are calibrated against the paper's testbed behaviour: MICA2
radios reach ~100 m, and per-link PRR around 0.92 makes the Figure 9
reliability curves land where the paper measured them (see DESIGN.md §5).
Zhao & Govindan [25] report exactly this kind of lossy-but-usable link in
dense deployments.

``in_range`` is the one hearer predicate: the channel's hearer query tests
it from the transmitter against every radio in the surrounding spatial-hash
cells, so a model with a finite ``range_m`` must answer ``False`` beyond
it.
"""

from __future__ import annotations

import math
from typing import Protocol

Position = tuple[float, float]

#: Nominal CC1000 outdoor range in meters (paper §3.1: "up to ... 100m").
MICA2_RANGE_M = 100.0

#: Default per-link packet reception rate (calibration: DESIGN.md §5 —
#: chosen so Figure 9's smove and rout reliability curves land near the
#: paper's, preserving the crossover where acknowledged hop-by-hop migration
#: beats unacknowledged end-to-end requests).
DEFAULT_PRR = 0.925


def _distance(a: Position, b: Position) -> float:
    # Not math.dist/hypot or a squared compare: either can flip a boundary pair.
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


class LinkModel(Protocol):
    """Geometry-based link quality."""

    def in_range(self, src: Position, dst: Position) -> bool:  # pragma: no cover
        ...

    def prr(self, src: Position, dst: Position) -> float:  # pragma: no cover
        ...


class PerfectLinks:
    """Every in-range frame arrives.  For unit tests and protocol debugging."""

    def __init__(self, range_m: float = MICA2_RANGE_M):
        self.range_m = range_m

    def in_range(self, src: Position, dst: Position) -> bool:
        return _distance(src, dst) <= self.range_m

    def prr(self, src: Position, dst: Position) -> float:
        return 1.0 if self.in_range(src, dst) else 0.0


class UniformLossLinks:
    """A fixed PRR for every in-range link.

    This is the right model for the paper's *tabletop* testbed: all 25 motes
    sit within mutual radio range and multi-hop is synthesized by a software
    filter, so every physical link sees statistically similar loss.
    """

    def __init__(self, prr: float = DEFAULT_PRR, range_m: float = MICA2_RANGE_M):
        if not (0.0 <= prr <= 1.0):
            raise ValueError(f"prr must be within [0,1]: {prr}")
        self._prr = prr
        self.range_m = range_m

    def in_range(self, src: Position, dst: Position) -> bool:
        return _distance(src, dst) <= self.range_m

    def prr(self, src: Position, dst: Position) -> float:
        return self._prr if self.in_range(src, dst) else 0.0


class DistancePrrLinks:
    """Distance-dependent PRR with a connected and a transitional region.

    Following the empirical structure reported by Zhao & Govindan [25]:
    links shorter than ``connected_m`` receive at ``prr_connected``; beyond
    that the PRR decays linearly, hitting zero at ``range_m``.  Use this for
    the *physical topology* extension mode where motes are really spaced out
    instead of grid-filtered.
    """

    def __init__(
        self,
        connected_m: float = 40.0,
        range_m: float = MICA2_RANGE_M,
        prr_connected: float = 0.95,
    ):
        if connected_m > range_m:
            raise ValueError("connected_m cannot exceed range_m")
        self.connected_m = connected_m
        self.range_m = range_m
        self.prr_connected = prr_connected

    def in_range(self, src: Position, dst: Position) -> bool:
        return _distance(src, dst) <= self.range_m

    def prr(self, src: Position, dst: Position) -> float:
        distance = _distance(src, dst)
        if distance > self.range_m:
            return 0.0
        if distance <= self.connected_m:
            return self.prr_connected
        span = self.range_m - self.connected_m
        return self.prr_connected * (self.range_m - distance) / span
