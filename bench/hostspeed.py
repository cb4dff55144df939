"""Host speed: a fixed reference loop that times stand in for the CPU's speed.

The benchmark host is a shared machine whose throughput drifts while it
runs, with CPU time equal to wall time, so the drift comes from other
tenants, not from this process.  On a 2-vCPU x86-64 sandbox the fastest
run of one knx call, taken over 15 s, moved by up to half from one 15-s
window to the next, and the speed changes within a second as well.

So the benchmark runs ``reference_work()`` once after every timed call and
states a call's time as

    seconds * REFERENCE_S / (fastest reference_work() run right around it)

the time it would take on a host where the loop takes ``REFERENCE_S``.  A
change that makes knx faster or slower moves this number as it moves the
wall time on a steady host; the reference loop does not call knx.  Over
six seeded cherednik runs of 20 s on that sandbox, this scaling cut the
interquartile range of the pass time from 29% of its median to 4%.

Set-up time is mostly a fresh interpreter starting and importing modules,
which tracks the loop less well than the start of a bare interpreter: over
47 windows of 12 set-ups on that sandbox, scaling each set-up by the mean
of the bare starts right before and after it cut the interquartile range
of the windows' median set-up time from 26% to 8% (the loop: 25%).  So
set-up times are stated at a host where a bare interpreter starts in
``START_REFERENCE_S``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

# Seconds of the fastest reference_work() run on a 2-vCPU x86-64 sandbox at
# its usual speed; times are stated at this speed.
REFERENCE_S = 0.0012
# Seconds a bare interpreter takes to start and exit there.
START_REFERENCE_S = 0.07


def reference_work() -> int:
    """A fixed mix of the interpreter work knx spends its time in."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7 + 1, i) * Fraction(3, i + 2)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    table = [0] * 800
    for i in range(2, 800):
        table[i] = table[i - 1] + table[i - 2] % 7 + (i & 3)
    text = json.dumps([[str(k), v] for k, v in sorted(counts.items())])
    return len(json.loads(text)) + table[-1] + total.denominator % 7


def sample() -> float:
    """Seconds of one reference_work() run."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def interpreter_start() -> float:
    """Seconds to start and stop a bare interpreter, as set-up starts one."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", ""], check=True, capture_output=True)
    return time.monotonic() - started
