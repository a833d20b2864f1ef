"""A fixed reference kernel that measures how fast the host runs right now.

It mixes the two kinds of work privgames does, pure-Python integer
arithmetic and small numpy operations, and shares no code with the
package, so no change to the package can move it.
"""

from time import perf_counter

import numpy as np

_MASK = (1 << 64) - 1


def reference_kernel():
    z = 1
    for _ in range(200000):
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    a = np.random.Generator(np.random.PCG64(12345)).integers(0, 5, size=(200, 5))
    acc = 0.0
    for i in range(3000):
        acc += np.bincount(a[:, i % 5] * 5 + a[:, (i + 1) % 5], minlength=25)[i % 25]
        acc += (a == a[i % 200]).all(axis=1).mean()
    return z, acc


def reference_s():
    """Wall time of one reference kernel."""
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0
