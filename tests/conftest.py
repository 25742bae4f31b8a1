"""Every property test draws the same examples on every run.

Hypothesis draws fresh random examples by default and replays failures from
a local database, so two runs of the same tree could test different inputs.
The profile below fixes the draw and keeps no database; a test's own
``settings`` still set its example count.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
