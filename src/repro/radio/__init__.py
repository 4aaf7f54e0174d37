"""CC1000 radio model: frames, link models, CSMA broadcast channel."""

from repro.radio._np import NUMPY_FLOOR
from repro.radio.channel import (
    EFFECTIVE_BITRATE,
    Channel,
    MacParams,
    Radio,
    Transmission,
)
from repro.radio.field import RadioField
from repro.radio.frame import FRAME_OVERHEAD_BYTES, MAX_PAYLOAD, Frame
from repro.radio.linkcache import LinkCache
from repro.radio.linkmodels import (
    DEFAULT_PRR,
    MICA2_RANGE_M,
    DistancePrrLinks,
    LinkModel,
    PerfectLinks,
    UniformLossLinks,
)

__all__ = [
    "EFFECTIVE_BITRATE",
    "NUMPY_FLOOR",
    "Channel",
    "MacParams",
    "Radio",
    "Transmission",
    "RadioField",
    "FRAME_OVERHEAD_BYTES",
    "MAX_PAYLOAD",
    "Frame",
    "LinkCache",
    "DEFAULT_PRR",
    "MICA2_RANGE_M",
    "DistancePrrLinks",
    "LinkModel",
    "PerfectLinks",
    "UniformLossLinks",
]
