"""Host-speed reference, so that op times from a shared machine compare.

On the 2-core virtual machine this benchmark was tuned on, the speed of
the same op swings by up to 40% within seconds, because other tenants
share its host; pinning to one core does not help.  So each op is
preceded by a fixed piece of pure interpreter work, and each in-process
op's time is scaled by ``NOMINAL_S`` over the median time of the
references taken within ``REF_WINDOW`` ops of it (see
``run.host_scales``).  README.md gives the raw and the scaled spreads.
The reference tracks in-process ops; it does not track a fresh CLI
process from one run to the next, nor an op of several seconds, whose
time spans many swings.

``NOMINAL_S`` only fixes the unit, milliseconds at the speed the machine
had when tuned; a comparison of two commits on one machine does not
depend on its value.  Set-up times and the raw op times in the results
file are not scaled.
"""

import math
import time

NOMINAL_S = 5.6e-3
REF_WINDOW = 2


def reference():
    acc = 0.0
    for i in range(1, 50_001):
        acc += math.sin(i) / i
    return acc


def measure():
    """Seconds one reference() takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
