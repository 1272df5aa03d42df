"""Shared test set-up: `perfbench/` on the import path, for the benchmark's
catalogue and tracer targets, and one hypothesis profile. Properties run
without a per-example deadline, since a cold import or a large drawn layout
can take longer than it, and a failing one prints its `@reproduce_failure`
blob."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

settings.register_profile("circle-rope", deadline=None, print_blob=True)
settings.load_profile("circle-rope")
