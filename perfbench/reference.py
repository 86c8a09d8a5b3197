"""A fixed reference kernel that measures how fast the host runs.

On a shared host the speed of a core swings by up to 1.8x for seconds to
minutes at a time (another tenant on the sibling hyperthread, cache and
memory contention), and process CPU time swings with it. A run therefore
samples this kernel before its first set-up and after every set-up and
pass, and reports its end-to-end times in *reference seconds*: the
seconds of each set-up or pass x ``REF_S`` / the mean of the samples
taken just before and just after it. On a host that runs the kernel in
``REF_S``, a reference second is a wall second.

The kernel is pure-Python dict, string and hashing work plus JSON
encoding and decoding, the kind of work that dominates the program's
planning, assembly, I/O and analysis. Its inputs are fixed and it never
calls the program, so no change to the program moves it. (A variant
with float32 FFTs tracked the pipeline less well: its normalised
figures spread twice as far.)
"""
from __future__ import annotations

import hashlib
import json
import time

#: the kernel's time (s) on the 2-core VM the benchmark was tuned on
#: (Intel Xeon, Python 3.11) while the host ran fast
REF_S = 0.35


def sample() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(150_000):
        key = hashlib.md5(str(i % 5000).encode()).hexdigest()
        counts[key] = counts.get(key, 0) + 1
    json.loads(json.dumps([{"i": i, "s": str(i)} for i in range(60_000)]))
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work done between two samples, in reference
    seconds. The host's speed drifts over tens of seconds, so the samples
    next to the work track it better than the run's mean sample does."""
    return seconds * REF_S / ((before + after) / 2)
