"""CC1000 radio model: frames, link models, CSMA broadcast channel."""

from repro.radio.channel import (
    EFFECTIVE_BITRATE,
    Channel,
    MacParams,
    Radio,
    Transmission,
)
from repro.radio.frame import FRAME_OVERHEAD_BYTES, MAX_PAYLOAD, Frame
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
    "Channel",
    "MacParams",
    "Radio",
    "Transmission",
    "FRAME_OVERHEAD_BYTES",
    "MAX_PAYLOAD",
    "Frame",
    "DEFAULT_PRR",
    "MICA2_RANGE_M",
    "DistancePrrLinks",
    "LinkModel",
    "PerfectLinks",
    "UniformLossLinks",
]
