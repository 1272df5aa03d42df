"""The mutant table in tools/mutants.py stays applicable to the tree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_mutant_applies_to_exactly_one_line():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for mutant in mutants.MUTANTS:
        mutants.check(mutant)  # raises, naming the mutant, unless its old text is one line
