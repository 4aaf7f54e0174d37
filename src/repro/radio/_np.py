"""Import numpy for the radio layer, failing fast with an actionable message.

The radio field keeps per-node positions in contiguous arrays, and the
channel's hearer query is one vectorized distance mask plus one argsort
over them, which makes numpy a hard runtime dependency of
:mod:`repro.radio`.  Importing it here, once, turns the otherwise-deep
``ModuleNotFoundError`` stack trace into a one-line instruction naming the
install command and the documented floor version (see
``requirements.txt``).
"""

from __future__ import annotations

#: Documented floor.  1.23 is the first release with Python 3.11 wheels.
#: numpy draws no random numbers here (the channel's stream is the stdlib
#: ``random.Random``); what a floor-satisfying numpy must reproduce is the
#: hearer query's float64 distance mask and its attach-order argsort.
NUMPY_FLOOR = "1.23"

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "repro's radio layer keeps per-node state in numpy arrays and needs "
        f"numpy >= {NUMPY_FLOOR}.  Install it with `pip install 'numpy>="
        f"{NUMPY_FLOOR}'` (or `pip install -r requirements.txt`)."
    ) from exc

__all__ = ["np", "NUMPY_FLOOR"]
