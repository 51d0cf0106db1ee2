import sys, os
sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it locally
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
