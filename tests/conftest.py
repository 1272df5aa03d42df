"""Shared test set-up: `perfbench/` on the import path, for the benchmark's
catalogue and tracer targets, and `tools/`, for the bench tool; and one
hypothesis profile. Properties run without a per-example deadline, since a
cold import or a large drawn layout can take longer than it, and a failing
one prints its `@reproduce_failure` blob."""

import sys
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]

settings.register_profile("circle-rope", deadline=None, print_blob=True)
settings.load_profile("circle-rope")
