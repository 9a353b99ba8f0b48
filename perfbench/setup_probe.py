"""Time, in this fresh interpreter, importing tvar2 and building one
workload's schedules (or loading its YAML configs); print the seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD WORKDIR
(run.py starts it with PYTHONPATH pointing at the checkout's src/).
The benchmark's own module is imported before the clock starts.
"""

import sys
import time

import models

start = time.perf_counter()
import tvar2  # noqa: E402,F401

models.setup(sys.argv[1], sys.argv[2])
print(time.perf_counter() - start)
