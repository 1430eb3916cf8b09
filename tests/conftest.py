import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    # By default the property tests draw the same examples on every run and
    # keep no example database, so a run neither meets a case that no earlier
    # run drew nor replays one that an earlier run stored.
    # HYPOTHESIS_PROFILE=search draws new examples and keeps failures in
    # .hypothesis/, to look for new cases.
    settings.register_profile("repeatable", derandomize=True, database=None)
    settings.register_profile("search")
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repeatable"))
