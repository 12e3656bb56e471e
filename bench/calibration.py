"""Host-speed calibration: a fixed unit of work timed next to every job.

On a shared host the speed of this kind of code drifts by tens of
percent over seconds to minutes (other tenants' load on the same cores),
far more than the changes the benchmark has to resolve.  The reference
unit below is a fixed mix of what the jobs do (a small dense eigensolve,
a Python loop over edges with float products and a dict, a sign vector
built from a list, a tuple of ints) and depends on nothing in the
package, so no change to the package can move it.  Timed right before
and right after a job, it measures the host's speed at that moment; the
job's time divided by it is in units that the drift cancels out of.
``NOMINAL_UNIT_S`` turns those units back into seconds: calibrated
times are the seconds the work would take on a host where one unit
takes ``NOMINAL_UNIT_S``.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one reference unit is taken to last on the nominal host.
NOMINAL_UNIT_S = 3.0e-4

_RNG = np.random.default_rng(20221201)
_A = _RNG.normal(size=(6, 6))
_A = _A + _A.T
_EDGES = tuple((r, s) for r in range(6) for s in range(r + 1, 6))


def reference_unit() -> float:
    """Wall seconds of one fixed unit of reference work."""
    t0 = time.perf_counter()
    for index in range(8):
        _, vectors = np.linalg.eigh(_A)
        x = vectors[:, index % 6]
        positive = {}
        for r, s in _EDGES:
            positive[(r, s)] = float(x[r] * _A[r, s] * x[s]) > 0.0
        signs = np.array([-1.0 if (index >> i) & 1 else 1.0
                          for i in range(len(_EDGES))])
        tuple(int(y) for y in signs)
    return time.perf_counter() - t0
