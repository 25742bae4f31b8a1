"""Every property test draws the same examples on every run, on one BLAS thread.

Hypothesis draws fresh random examples by default and replays failures from
a local database, so two runs of the same tree could test different inputs.
The profile below fixes the draw and keeps no database; a test's own
``settings`` still set its example count.

The toy model's matrix products are small, so a second BLAS thread only
spins; the thread counts are set before anything imports numpy, unless the
environment already sets them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
