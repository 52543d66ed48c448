"""Shared test settings: a deterministic hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and are bounded in count so the suite's run time stays
fixed; there is no per-example deadline because timings on a shared machine
vary.
"""

from hypothesis import settings

settings.register_profile(
    "stabsplit", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("stabsplit")
