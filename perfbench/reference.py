"""A fixed reference computation, timed next to every unit of a run.

The shared host's speed drifts by 1.5 to 2.3 times for seconds to minutes
at a time, so wall times from different runs are not comparable.  The
reference is timed just before each unit; a drift slows both alike, and the
ratio of their medians over a run stays put.  It is plain Python integer
and float arithmetic, the interpreter work that dominates squeezelab's
scalar hot paths, and calls no squeezelab code, so a change to the package
cannot move it.
"""

from __future__ import annotations

ITERATIONS = 3_600_000


def reference_loop(n: int = ITERATIONS) -> float:
    """About 0.4 s on an idle 2-core Xeon; returns a checksum."""
    s = 0
    x = 1.0
    for i in range(n):
        s += i * i % 7
        x = x * 0.999 + 0.001
    return s + x
