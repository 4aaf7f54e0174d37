"""Deployment dynamics: mobility, node churn, and duty-cycled radios.

The paper's pitch is *adaptive* applications — agents that migrate and
reconfigure as the network changes under them — but a deployment built by
:class:`~repro.network.SensorNetwork` is frozen at attach time.  This module
supplies the change: a :class:`DeploymentDynamics` driver scheduled on the sim
kernel (one recurring tick) that

* moves nodes under a :class:`MobilityModel` (static, linear drift, or the
  classic random waypoint), feeding each move through the channel's
  *incremental* hearer-index re-key (O(degree) per mover, never a rebuild);
* fails and recovers nodes under a :class:`ChurnModel` (an explicit schedule,
  or exponentially distributed random lifetimes à la Delgado et al.'s shared
  sensor networks);
* duty-cycles radios on a fixed period with per-node phase stagger.

Everything draws randomness from the simulator's named ``"dynamics"`` stream,
so a dynamic run is exactly as reproducible as a static one — and a
:class:`DeploymentDynamics` built with no models attached schedules *nothing*,
leaving the event and RNG streams bit-for-bit identical to a plain deployment.

All models are constructible from plain dicts via :func:`dynamics_from_spec`,
mirroring :func:`repro.topology.from_spec`, so scenario dynamics are data.
"""

from __future__ import annotations

import heapq
import math
from random import Random
from typing import Iterable, Sequence

from repro.errors import NetworkError
from repro.location import Location
from repro.network import SensorNetwork
from repro.sim.kernel import RecurringEvent
from repro.sim.units import seconds

Position = tuple[float, float]
Bounds = tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


def _clamp(value: float, low: float, high: float) -> float:
    return low if value < low else high if value > high else value


# ----------------------------------------------------------------------
# Mobility models
# ----------------------------------------------------------------------
class MobilityModel:
    """Per-node movement in *physical meters*.

    A model is shared by all mobile nodes; per-node state (current waypoint,
    speed, …) is whatever :meth:`start` returns and is threaded back through
    :meth:`step`.  ``bounds`` is the deployment's bounding box; models keep
    nodes inside it.
    """

    name = "static"

    def start(self, position: Position, bounds: Bounds, rng: Random):
        return None

    def step(
        self, position: Position, state, dt_s: float, bounds: Bounds, rng: Random
    ) -> tuple[Position, object]:
        return position, state


class StaticMobility(MobilityModel):
    """No movement; the explicit spelling of the default."""

    name = "static"


class LinearDrift(MobilityModel):
    """Constant-velocity drift (meters/second), reflecting off the bounds.

    Models a current or prevailing wind carrying sensor floats: everyone
    drifts the same way, bouncing back at the field edge.
    """

    name = "linear"

    def __init__(self, velocity: tuple[float, float] = (1.0, 0.0)):
        self.velocity = (float(velocity[0]), float(velocity[1]))

    def start(self, position: Position, bounds: Bounds, rng: Random):
        return self.velocity

    def step(self, position, state, dt_s, bounds, rng):
        vx, vy = state
        x, y = position[0] + vx * dt_s, position[1] + vy * dt_s
        xmin, ymin, xmax, ymax = bounds
        if not (xmin <= x <= xmax):
            vx = -vx
            x = _clamp(x, xmin, xmax)
        if not (ymin <= y <= ymax):
            vy = -vy
            y = _clamp(y, ymin, ymax)
        return (x, y), (vx, vy)


class RandomWaypoint(MobilityModel):
    """The classic random-waypoint model: pick a waypoint uniformly in the
    field, walk to it at a uniformly drawn speed, pause, repeat."""

    name = "random_waypoint"

    def __init__(self, speed: tuple[float, float] = (0.5, 2.0), pause_s: float = 2.0):
        if not (0.0 < speed[0] <= speed[1]):
            raise NetworkError(f"waypoint speed range must be positive: {speed}")
        if pause_s < 0:
            raise NetworkError(f"pause must be non-negative: {pause_s}")
        self.speed = (float(speed[0]), float(speed[1]))
        self.pause_s = float(pause_s)

    def _pick(self, bounds: Bounds, rng: Random) -> tuple[Position, float]:
        xmin, ymin, xmax, ymax = bounds
        target = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        return target, rng.uniform(*self.speed)

    def start(self, position, bounds, rng):
        target, speed = self._pick(bounds, rng)
        return [target, speed, 0.0]  # [waypoint, speed, remaining pause]

    def step(self, position, state, dt_s, bounds, rng):
        target, speed, pause = state
        if pause > 0.0:
            state[2] = pause - dt_s
            return position, state
        dx, dy = target[0] - position[0], target[1] - position[1]
        distance = math.hypot(dx, dy)
        reach = speed * dt_s
        if distance <= reach:
            state[0], state[1] = self._pick(bounds, rng)
            state[2] = self.pause_s
            return target, state
        frac = reach / distance
        return (position[0] + dx * frac, position[1] + dy * frac), state


# ----------------------------------------------------------------------
# Churn models
# ----------------------------------------------------------------------
class ChurnModel:
    """Decides, per tick, which nodes fail, recover, or leave for good.

    :meth:`start` sees the node list once; :meth:`events` returns
    ``(location, op)`` pairs due by simulated time ``now_s``, where ``op`` is
    ``"fail"``, ``"recover"``, or ``"detach"``.
    """

    name = "none"

    def start(self, locations: Sequence[Location], rng: Random) -> None:
        return None

    def events(self, now_s: float, rng: Random) -> Iterable[tuple[Location, str]]:
        return ()


_CHURN_OPS = ("fail", "recover", "detach")


class ScheduledChurn(ChurnModel):
    """An explicit fail/recover/detach timetable.

    ``events`` is an iterable of ``(time_s, op, location)`` triples (locations
    may be ``(x, y)`` pairs); each fires once when the dynamics tick passes its
    time, in chronological order.
    """

    name = "schedule"

    def __init__(self, events: Iterable[tuple[float, str, Location | tuple[int, int]]]):
        timetable = []
        for time_s, op, location in events:
            if op not in _CHURN_OPS:
                raise NetworkError(
                    f"unknown churn op {op!r} (expected one of {_CHURN_OPS})"
                )
            if not isinstance(location, Location):
                location = Location(int(location[0]), int(location[1]))
            timetable.append((float(time_s), op, location))
        self._timetable = sorted(timetable, key=lambda entry: entry[0])
        self._cursor = 0

    def start(self, locations, rng):
        # Fail at build time, not at the scheduled tick mid-simulation.
        present = set(locations)
        unknown = sorted(
            {str(location) for _, _, location in self._timetable if location not in present}
        )
        if unknown:
            raise NetworkError(f"churn schedule references unknown nodes: {unknown}")
        self._cursor = 0  # replay from the top when reused across deployments

    def events(self, now_s, rng):
        due = []
        while self._cursor < len(self._timetable):
            time_s, op, location = self._timetable[self._cursor]
            if time_s > now_s:
                break
            due.append((location, op))
            self._cursor += 1
        return due


class RandomLifetimes(ChurnModel):
    """Memoryless up/down cycling: every node alternates exponentially
    distributed uptimes (mean ``mtbf_s``) and downtimes (mean ``mttr_s``).

    The shared-sensor-network literature (Delgado et al.) models node
    availability exactly this way; it keeps a configurable fraction
    ``mttr/(mtbf+mttr)`` of the field dark at any instant.
    """

    name = "lifetimes"

    def __init__(self, mtbf_s: float = 300.0, mttr_s: float = 30.0):
        if mtbf_s <= 0 or mttr_s <= 0:
            raise NetworkError("mtbf_s and mttr_s must be positive")
        self.mtbf_s = float(mtbf_s)
        self.mttr_s = float(mttr_s)
        self._next: list[tuple[float, Location, bool]] = []  # (due, node, up)

    def start(self, locations, rng):
        self._next = [
            (rng.expovariate(1.0 / self.mtbf_s), location, True)
            for location in locations
        ]

    def events(self, now_s, rng):
        due = []
        upcoming = []
        for due_s, location, up in self._next:
            # Drain *every* transition due by now, not just one per tick:
            # with short lifetimes a node can fail and recover between ticks,
            # and capping at one transition would lag behind schedule forever.
            while due_s <= now_s:
                due.append((location, "fail" if up else "recover"))
                due_s += rng.expovariate(1.0 / (self.mttr_s if up else self.mtbf_s))
                up = not up
            upcoming.append((due_s, location, up))
        self._next = upcoming
        return due


# ----------------------------------------------------------------------
# Duty cycling
# ----------------------------------------------------------------------
class DutyCycle:
    """Periodic radio on/off: on for ``on_fraction`` of every ``period_s``.

    Each node gets a deterministic phase offset (staggered by default, so the
    whole field never sleeps at once).  Evaluated at tick granularity: the
    driver keeps a *calendar* of each node's next wake/sleep boundary
    (:meth:`next_transition`) so a tick only touches nodes whose state can
    actually have changed — O(changes), not O(field).
    """

    def __init__(self, period_s: float = 10.0, on_fraction: float = 0.5, stagger: bool = True):
        if period_s <= 0:
            raise NetworkError(f"duty period must be positive: {period_s}")
        if not (0.0 < on_fraction <= 1.0):
            raise NetworkError(f"on_fraction must be in (0, 1]: {on_fraction}")
        self.period_s = float(period_s)
        self.on_fraction = float(on_fraction)
        self.stagger = stagger
        self._phase: dict[Location, float] = {}

    def start(self, locations: Sequence[Location], rng: Random) -> None:
        for location in locations:
            self._phase[location] = (
                rng.uniform(0.0, self.period_s) if self.stagger else 0.0
            )

    def awake(self, location: Location, now_s: float) -> bool:
        phase = self._phase.get(location, 0.0)
        return ((now_s + phase) % self.period_s) < self.on_fraction * self.period_s

    def next_transition(self, location: Location, now_s: float) -> float:
        """Earliest time strictly after ``now_s`` at which :meth:`awake` can
        change for this node (``inf`` for an always-on cycle)."""
        if self.on_fraction >= 1.0:
            return math.inf
        phase = self._phase.get(location, 0.0)
        elapsed = (now_s + phase) % self.period_s
        boundary = self.on_fraction * self.period_s
        if elapsed < boundary:
            due = now_s + (boundary - elapsed)  # awake now: next is lights-out
        else:
            due = now_s + (self.period_s - elapsed)  # asleep: next is wake-up
        if due <= now_s:  # float-rounding guard at an exact boundary
            due = now_s + self.period_s
        return due


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class DeploymentDynamics:
    """Drives mobility, churn, and duty cycling over a deployed network.

    One recurring kernel event (period ``tick_s``) advances every attached
    model.  A node's radio is up iff churn says it is alive *and* its duty
    cycle says it is awake; the two concerns compose without fighting over
    ``Radio.enabled``.

    ``mobile`` selects which field nodes move: ``None`` (all of them, when a
    mobility model is given), a fraction in (0, 1), or an explicit iterable of
    locations.  The base station, if any, never moves or churns.
    """

    def __init__(
        self,
        net: SensorNetwork,
        *,
        mobility: MobilityModel | None = None,
        mobile: float | Iterable[Location | tuple[int, int]] | None = None,
        churn: ChurnModel | None = None,
        duty_cycle: DutyCycle | None = None,
        tick_s: float = 1.0,
    ):
        if tick_s <= 0:
            raise NetworkError(f"dynamics tick must be positive: {tick_s}")
        self.net = net
        self.mobility = mobility
        self.churn = churn
        self.duty_cycle = duty_cycle
        self.tick_s = float(tick_s)
        self.rng = net.sim.rng("dynamics")
        self._ticker: RecurringEvent | None = None
        self._last_tick_s: float = net.sim.now_seconds

        field = sorted(node.location for node in net.field_nodes())
        self._field = field
        self.bounds = self._field_bounds(field)
        self.mobile_nodes: list[Location] = self._select_mobile(field, mobile)
        self._mobility_state = {}
        if self.mobility is not None:
            for location in self.mobile_nodes:
                self._mobility_state[location] = self.mobility.start(
                    net.position_of(location), self.bounds, self.rng
                )
        if self.churn is not None:
            self.churn.start(field, self.rng)
        #: Calendar of pending duty toggles: a heap of ``(due_s, location)``
        #: pairs, one live entry per node.  Every node starts due *now* so the
        #: first tick applies initial phases; after that a tick pops only the
        #: nodes whose wake/sleep boundary has passed — O(changes) per tick.
        self._duty_calendar: list[tuple[float, Location]] = []
        if self.duty_cycle is not None:
            self.duty_cycle.start(field, self.rng)
            now_s = net.sim.now_seconds
            self._duty_calendar = [(now_s, location) for location in field]
            heapq.heapify(self._duty_calendar)
        self._alive: dict[Location, bool] = {location: True for location in field}
        self._gone: set[Location] = set()

        # Statistics.
        self.moves_applied = 0
        self.fails = 0
        self.recoveries = 0
        self.departures = 0
        self.radio_toggles = 0
        self.duty_evaluations = 0

    # ------------------------------------------------------------------
    def _field_bounds(self, field: Sequence[Location]) -> Bounds:
        if not field:
            return (0.0, 0.0, 0.0, 0.0)
        # The radios' exact extreme coordinates (min/max never rounds): the
        # bounds feed the waypoint RNG draws.
        net = self.net
        xs, ys = zip(*(net.position_of(location) for location in field))
        pad = net.channel.grid_spacing_m  # one grid unit of slack
        return (
            float(min(xs)) - pad,
            float(min(ys)) - pad,
            float(max(xs)) + pad,
            float(max(ys)) + pad,
        )

    def _select_mobile(self, field, mobile) -> list[Location]:
        if self.mobility is None or isinstance(self.mobility, StaticMobility):
            if mobile is not None:
                raise NetworkError(
                    "mobile/mobile_fraction selects which nodes move and "
                    "requires a non-static mobility model"
                )
            return []
        if mobile is None:
            return list(field)
        if isinstance(mobile, (int, float)) and not isinstance(mobile, bool):
            if not (0.0 < mobile <= 1.0):
                raise NetworkError(f"mobile fraction must be in (0, 1]: {mobile}")
            count = max(1, round(mobile * len(field)))
            return sorted(self.rng.sample(field, min(count, len(field))))
        present = set(field)
        chosen = []
        for location in mobile:
            if not isinstance(location, Location):
                location = Location(int(location[0]), int(location[1]))
            if location not in present:
                raise NetworkError(f"mobile node {location} is not in the deployment")
            chosen.append(location)
        return chosen

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._ticker is not None and not self._ticker.cancelled

    @property
    def idle(self) -> bool:
        """True when no model is attached — starting would be a no-op."""
        return self.mobility is None and self.churn is None and self.duty_cycle is None

    def start(self) -> "DeploymentDynamics":
        """Schedule the recurring tick.  A no-op driver stays unscheduled, so
        a static scenario's event stream is untouched."""
        if self.idle or self.active:
            return self
        self._last_tick_s = self.net.sim.now_seconds
        self._ticker = self.net.sim.every(seconds(self.tick_s), self._tick)
        return self

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now_s = self.net.sim.now_seconds
        dt_s = now_s - self._last_tick_s
        self._last_tick_s = now_s
        if self.mobility is not None and dt_s > 0:
            self._advance_mobility(dt_s)
        if self.churn is not None:
            self._apply_churn(now_s)
        if self.duty_cycle is not None:
            self._apply_duty_cycle(now_s)

    def _advance_mobility(self, dt_s: float) -> None:
        for location in self.mobile_nodes:
            if location in self._gone:
                continue
            if self.net.channel.radio_for(self.net.topology.mote_id(location)) is None:
                self._gone.add(location)  # departed outside the driver
                continue
            position = self.net.position_of(location)
            new_position, state = self.mobility.step(
                position, self._mobility_state[location], dt_s, self.bounds, self.rng
            )
            self._mobility_state[location] = state
            if new_position != position:
                self.net.move_node(location, new_position)
                self.moves_applied += 1

    def _apply_churn(self, now_s: float) -> None:
        for location, op in self.churn.events(now_s, self.rng):
            if location in self._gone:
                continue
            if op == "fail":
                self._alive[location] = False
                self.fails += 1
            elif op == "recover":
                self._alive[location] = True
                self.recoveries += 1
            elif op == "detach":
                self.net.detach_node(location)
                self._gone.add(location)
                self._alive[location] = False
                self.departures += 1
                continue
            self._sync_radio(location, now_s)

    def _apply_duty_cycle(self, now_s: float) -> None:
        """Apply duty toggles due by ``now_s`` — O(changes), not O(field).

        Only calendar entries whose wake/sleep boundary has passed are
        popped; each is re-armed with the node's next boundary.  A tick with
        nothing due costs exactly one heap peek.  (The tiny epsilon absorbs
        float error in boundaries that land exactly on a tick.)
        """
        calendar = self._duty_calendar
        horizon = now_s + 1e-9
        while calendar and calendar[0][0] <= horizon:
            _, location = heapq.heappop(calendar)
            if location in self._gone:
                continue  # departed: drop its calendar entry for good
            self.duty_evaluations += 1
            self._sync_radio(location, now_s)
            if location in self._gone:
                continue  # _sync_radio discovered an external departure
            due = self.duty_cycle.next_transition(location, now_s)
            if due <= horizon:
                # A boundary within float-epsilon of this tick: we just synced
                # against it, so look again next tick rather than re-popping
                # the same entry forever within this one.
                due = now_s + self.tick_s
            heapq.heappush(calendar, (due, location))

    def _sync_radio(self, location: Location, now_s: float) -> None:
        if self.net.channel.radio_for(self.net.topology.mote_id(location)) is None:
            self._gone.add(location)  # departed outside the driver: stop touching it
            return
        should_be_up = self._alive[location] and (
            self.duty_cycle is None or self.duty_cycle.awake(location, now_s)
        )
        if self.net.node_up(location) != should_be_up:
            if should_be_up:
                self.net.recover_node(location)
            else:
                self.net.fail_node(location)
            self.radio_toggles += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "mobile_nodes": len(self.mobile_nodes),
            "moves": self.moves_applied,
            "fails": self.fails,
            "recoveries": self.recoveries,
            "departures": self.departures,
            "radio_toggles": self.radio_toggles,
            "duty_evaluations": self.duty_evaluations,
        }


# ----------------------------------------------------------------------
# Specs: dynamics as data
# ----------------------------------------------------------------------
_MOBILITY_KINDS = {
    "static": (StaticMobility, frozenset()),
    "linear": (LinearDrift, frozenset({"velocity"})),
    "random_waypoint": (RandomWaypoint, frozenset({"speed", "pause_s"})),
}

_CHURN_KINDS = {
    "schedule": (ScheduledChurn, frozenset({"events"})),
    "lifetimes": (RandomLifetimes, frozenset({"mtbf_s", "mttr_s"})),
}


def _build_from_kind(table: dict, spec: dict, what: str):
    kind = spec.get("model")
    if kind not in table:
        known = ", ".join(sorted(table))
        raise NetworkError(f"unknown {what} model {kind!r} (expected one of {known})")
    cls, allowed = table[kind]
    params = {key: value for key, value in spec.items() if key != "model"}
    unknown = set(params) - allowed
    if unknown:
        raise NetworkError(f"unknown {kind} {what} keys: {sorted(unknown)}")
    if kind == "linear" and "velocity" in params:
        params["velocity"] = tuple(params["velocity"])
    if kind == "random_waypoint" and "speed" in params:
        params["speed"] = tuple(params["speed"])
    if kind == "schedule":
        if "events" not in params:
            raise NetworkError("schedule churn spec requires 'events'")
        params["events"] = [
            (time_s, op, tuple(location)) for time_s, op, location in params["events"]
        ]
    return cls(**params)


def dynamics_from_spec(net: SensorNetwork, spec: dict | None) -> DeploymentDynamics:
    """Build a :class:`DeploymentDynamics` from a plain dict.

    Example::

        {"mobility": {"model": "random_waypoint", "speed": [0.5, 2.0]},
         "mobile_fraction": 0.25,
         "churn": {"model": "lifetimes", "mtbf_s": 120, "mttr_s": 20},
         "duty_cycle": {"period_s": 4.0, "on_fraction": 0.75},
         "tick_s": 1.0}

    An empty / ``None`` spec yields an idle driver whose :meth:`start` is a
    no-op, keeping static scenarios bit-for-bit identical to plain runs.
    """
    spec = dict(spec or {})
    allowed = {"mobility", "mobile_fraction", "mobile", "churn", "duty_cycle", "tick_s"}
    unknown = set(spec) - allowed
    if unknown:
        raise NetworkError(f"unknown dynamics spec keys: {sorted(unknown)}")
    if "mobile_fraction" in spec and "mobile" in spec:
        raise NetworkError("pass either mobile_fraction or mobile, not both")

    mobility = None
    if "mobility" in spec:
        mobility = _build_from_kind(_MOBILITY_KINDS, spec["mobility"], "mobility")
        if isinstance(mobility, StaticMobility):
            mobility = None
    mobile = spec.get("mobile")
    if mobile is None and "mobile_fraction" in spec:
        mobile = float(spec["mobile_fraction"])
    elif isinstance(mobile, (int, float)) and not isinstance(mobile, bool):
        mobile = float(mobile)  # the numeric-fraction form the API accepts
    elif mobile is not None:
        mobile = [tuple(entry) for entry in mobile]
    churn = _build_from_kind(_CHURN_KINDS, spec["churn"], "churn") if "churn" in spec else None
    duty = None
    if "duty_cycle" in spec:
        duty_spec = dict(spec["duty_cycle"])
        unknown = set(duty_spec) - {"period_s", "on_fraction", "stagger"}
        if unknown:
            raise NetworkError(f"unknown duty_cycle keys: {sorted(unknown)}")
        duty = DutyCycle(**duty_spec)
    return DeploymentDynamics(
        net,
        mobility=mobility,
        mobile=mobile,
        churn=churn,
        duty_cycle=duty,
        tick_s=float(spec.get("tick_s", 1.0)),
    )
