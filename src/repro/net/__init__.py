"""Network layer: addressing, AM dispatch, filters, beacons, geo routing."""

from repro.net.acquaintance import (
    NEIGHBOR_DISPLACED,
    NEIGHBOR_FOUND,
    NEIGHBOR_LOST,
    NEIGHBOR_MOVED,
    Acquaintance,
    AcquaintanceList,
)
from repro.net.addresses import (
    BASE_STATION_LOCATION,
    BROADCAST_ID,
    Location,
    grid_locations,
)
from repro.net.beacons import DEFAULT_EXPIRY_INTERVALS, BeaconService
from repro.net.filters import (
    LiveNeighborFilter,
    NeighborSetFilter,
    bridge_edge,
)
from repro.net.georouting import (
    DEFAULT_EPSILON,
    DEFAULT_TTL,
    GEO_MAX_PAYLOAD,
    GeoMessaging,
    GeoRouter,
)
from repro.net.stack import NetworkStack

__all__ = [
    "Acquaintance",
    "AcquaintanceList",
    "NEIGHBOR_DISPLACED",
    "NEIGHBOR_FOUND",
    "NEIGHBOR_LOST",
    "NEIGHBOR_MOVED",
    "BASE_STATION_LOCATION",
    "BROADCAST_ID",
    "Location",
    "grid_locations",
    "BeaconService",
    "DEFAULT_EXPIRY_INTERVALS",
    "LiveNeighborFilter",
    "NeighborSetFilter",
    "bridge_edge",
    "DEFAULT_EPSILON",
    "DEFAULT_TTL",
    "GEO_MAX_PAYLOAD",
    "GeoMessaging",
    "GeoRouter",
    "NetworkStack",
]
