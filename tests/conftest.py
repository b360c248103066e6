"""Suite-wide hypothesis settings.

Property tests draw the same examples on every run, so a tier-1 result
does not depend on the run, and have no per-example deadline, because
wall-clock limits flake on a loaded machine.
"""

from hypothesis import settings

settings.register_profile("nlslab", derandomize=True, deadline=None, database=None)
settings.load_profile("nlslab")
