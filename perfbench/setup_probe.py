"""Time one start-up of the in-process program: ``setup_s`` samples.

Run in a fresh interpreter per sample, with ``src`` and ``perfbench``
on ``PYTHONPATH``::

    python perfbench/setup_probe.py WARM_QUERIES.pickle

Times the library import and ``Optimizer`` construction plus the cache
warm pass over the pickled queries (empty for plan-cold).  Loading the
pickle, which is input generation, is not timed.  Then runs the
calibration kernel in the same process.  Prints one JSON object,
``{"setup_s": ..., "kernel_ms": ...}``.
"""

import time

began = time.perf_counter()
from repro import Optimizer  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()

import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402

with open(sys.argv[1], "rb") as handle:
    warm = pickle.load(handle)

constructed = time.perf_counter()
optimizer = Optimizer()
if warm:
    optimizer.optimize_many(warm)
finished = time.perf_counter()

from harness.calibrate import Speed  # noqa: E402

speed = Speed()
speed.sample(5)
print(json.dumps({
    "setup_s": (imported - began) + (finished - constructed),
    "kernel_ms": sorted(speed.samples_ms)[2],
}))
