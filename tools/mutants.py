"""Tier-1's strength as a number: a table of one-line mutants of `src/`, each
breaking one rule that the README or the paper states, run one at a time.

    python tools/mutants.py            # every mutant
    python tools/mutants.py M05 M13    # a subset, by id

For each mutant the tool copies src/, tests/, perfbench/, tools/,
pyproject.toml and BENCHMARK.json into a fresh temporary directory (the
checkout is never edited), checks that the mutant's old text occurs exactly
once in its file, replaces it with the new text and runs tier-1 there with
`-x`. It prints the fate, the seconds
taken and the first failing test, then exits 1 if any fate differs from the
one the table expects. Mutants run one after another, since tier-1 alone
keeps a small machine busy; a full pass takes several minutes.

Tier-1 runs with a fixed hypothesis seed, so that a property draws the same
examples on every pass and a fate does not depend on luck, and without
tests/test_mutants.py, which checks this table against the unmutated tree.
Only the standard library is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml", "BENCHMARK.json")
TIMEOUT_S = 600  # per mutant; tier-1 passes in well under a minute
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    id: str
    rule: str  # the rule the mutant breaks
    path: str  # relative to the repository root
    old: str  # occurs exactly once in `path`
    new: str
    expected: str  # "killed", or "equivalent: <why no test can tell>"


GEOMETRY, SCHEMES, METRICS, ROPE, HARNESS, SPEC, CLI = (
    f"src/circle_rope/{name}.py"
    for name in ("geometry", "schemes", "metrics", "rope", "harness", "spec", "cli"))

MUTANTS = [
    Mutant("M01", "PTD's block sum splits where numpy's pairwise sum splits", METRICS,
           "half = n // 2 - (n // 2) % 8", "half = n // 2", "killed"),
    Mutant("M02", "a replicated index shares the widest section's table", ROPE,
           "ladder = np.argmax(params.sections) if replicated else axis",
           "ladder = 0 if replicated else axis", "killed"),
    Mutant("M03", "upper and lower schedules split at ceil(n/2)", SPEC,
           "split = math.ceil(num_layers / 2)", "split = num_layers // 2", "killed"),
    Mutant("M04", "the planar convention needs one shared temporal component", METRICS,
           "np.all(image[:, 0] == image[0, 0])", "np.all(image[:, 1] == image[0, 1])", "killed"),
    Mutant("M05", "spatial's counter resumes at b + max(w, h)", SCHEMES,
           "return grid_coords(grid) + base, base + max(grid.width, grid.height)",
           "return grid_coords(grid) + base, base + grid.width", "killed"),
    Mutant("M06", "spatial-origin angles wrap into [0, 2*pi)", GEOMETRY,
           "return np.mod((raw - raw.min()) / delta * TWO_PI, TWO_PI)",
           "return (raw - raw.min()) / delta * TWO_PI", "killed"),
    Mutant("M07", "spread is the largest per-query logit range", HARNESS,
           "spread = float((logits.max(axis=1) - logits.min(axis=1)).max())",
           "spread = float((logits.max(axis=1) - logits.min(axis=1)).mean())", "killed"),
    Mutant("M08", "PTD subtracts each row's own mean", METRICS,
           "block -= np.add.reduce(block, axis=1, keepdims=True) / width",
           "block -= np.add.reduce(block, axis=1, keepdims=True) / width + 1e-15", "killed"),
    Mutant("M09", "the CLI accepts exactly MAX_CELLS text-image pairs", CLI,
           "if pairs and text * image > MAX_CELLS:", "if pairs and text * image >= MAX_CELLS:",
           "killed"),
    Mutant("M10", "centering uses the midrange", GEOMETRY,
           "center = 0.5 * (points.max(axis=0) + points.min(axis=0))",
           "center = points.mean(axis=0)",
           "equivalent: on a full grid, the only input outside tests, the mean is the "
           "midrange exactly"),
    Mutant("M11", "hard's counter advances by w*h", SCHEMES,
           "return _line(base, grid.num_tokens), base + grid.num_tokens",
           "return _line(base, grid.num_tokens), base + grid.num_tokens + 1", "killed"),
    Mutant("M12", "unordered's counter advances by one per image", SCHEMES,
           "return np.full((grid.num_tokens, 3), float(base)), base + 1",
           "return np.full((grid.num_tokens, 3), float(base)), base + 2", "killed"),
    Mutant("M13", "circle's counter resumes at b + max(w, h)", SCHEMES,
           "return fused, base + max(grid.width, grid.height)",
           "return fused, base + grid.width", "killed"),
    Mutant("M14", "spatial puts row j, column i at (b, b+j, b+i)", SCHEMES,
           "return grid_coords(grid) + base,", "return grid_coords(grid)[:, [0, 2, 1]] + base,",
           "killed"),
    Mutant("M15", "each text token advances the counter by one", SCHEMES,
           "counter += seg.length", "counter += seg.length + 1", "killed"),
    Mutant("M16", "the upper-half schedule starts after ceil(n/2)", SPEC,
           "lambda layer: layer > split,", "lambda layer: layer >= split,", "killed"),
    Mutant("M17", "the planar convention measures height and width", METRICS,
           '"planar": (1, 2)', '"planar": (0, 2)', "killed"),
    Mutant("M18", "alpha weighs the spatial-origin angle", GEOMETRY,
           "return alpha * sa + (1.0 - alpha) * ga", "return alpha * ga + (1.0 - alpha) * sa",
           "killed"),
    Mutant("M19", "fusion is linear in beta", GEOMETRY,
           "return beta * projected + (1.0 - beta) * centered",
           "return beta * beta * projected + (1.0 - beta) * centered", "killed"),
    Mutant("M20", "rotary angles are linear in signed positions", ROPE,
           "np.repeat(index, params.sections, axis=-1)",
           "np.repeat(np.abs(index), params.sections, axis=-1)", "killed"),
    Mutant("M21", "a zero index does not rotate", ROPE,
           "axis=-1) * params.frequencies()", "axis=-1) * params.frequencies() + 0.1", "killed"),
    Mutant("M22", "rotation preserves the norm", ROPE,
           "out[..., 1::2] = even * sin + odd * cos",
           "out[..., 1::2] = (even * sin + odd * cos) * (1 + 1e-7)", "killed"),
    Mutant("M23", "the circle's plane is orthogonal to the text line", GEOMETRY,
           "u_raw = np.array([-n[1], n[0], 0.0])", "u_raw = np.array([-n[1], n[0], 0.1])",
           "killed"),
    Mutant("M24", "every image token lies on one circle: equidistance", GEOMETRY,
           "out[:, 0] = radius * np.cos(angles)", "out[:, 0] = 1.01 * radius * np.cos(angles)",
           "killed"),
    Mutant("M25", "the auto radius is k times the centre-to-corner distance", SPEC,
           "height, width = (grid.height - 1) / 2, (grid.width - 1) / 2",
           "height, width = grid.height / 2, (grid.width - 1) / 2", "killed"),
    Mutant("M26", "grid-index angles are k/N of a full turn", GEOMETRY,
           "return np.arange(n) / n * TWO_PI", "return np.arange(n) / (n + 1) * TWO_PI", "killed"),
    Mutant("M27", "the spatial-origin angle is atan2(height, width)", GEOMETRY,
           "raw = np.arctan2(centered[:, 1], centered[:, 2])",
           "raw = np.arctan2(centered[:, 2], centered[:, 1])", "killed"),
    Mutant("M28", "coinciding raw angles all map to 0", GEOMETRY,
           "if delta <= 0:", "if delta < 0:", "killed"),
    Mutant("M29", "the CLI accepts exactly MAX_TOKENS tokens", CLI,
           "if text + image > MAX_TOKENS:", "if text + image >= MAX_TOKENS:", "killed"),
    Mutant("M30", "attn accepts exactly MAX_TOKEN_DIMS tokens x head-dim", CLI,
           "if tokens * head_dim > MAX_TOKEN_DIMS:", "if tokens * head_dim >= MAX_TOKEN_DIMS:",
           "killed"),
    Mutant("M31", "a usage error exits 2", CLI,
           "return 2 if exc.code not in (0, None) else 0",
           "return 1 if exc.code not in (0, None) else 0", "killed"),
    Mutant("M32", "a config value loses exactly one pair of double quotes", CLI,
           "val = val[1:-1] if len(val) > 1 and val[0] == val[-1] == '\"' else val",
           "val = val.strip('\"')", "killed"),
    Mutant("M33", "`#` starts a comment in a config file", CLI,
           'line = line.split("#", 1)[0].strip()', "line = line.strip()", "killed"),
    Mutant("M34", "counts are ASCII digits after an optional `-`", SPEC,
           'if re.fullmatch("-?[0-9]+", text) is None:',
           'if re.fullmatch("[-+]?[0-9]+", text) is None:', "killed"),
    Mutant("M35", "std is the population standard deviation", HARNESS,
           "float(np.sqrt(np.add.reduce(table, axis=None) / n))",
           "float(np.sqrt(np.add.reduce(table, axis=None) / (n - 1)))", "killed"),
    Mutant("M36", "circle uses its circle indices on the layers the schedule marks", HARNESS,
           'active = "spatial" if scheme == "circle" and not circle else scheme',
           'active = "spatial" if scheme == "circle" and circle else scheme', "killed"),
    Mutant("M37", "default sections give a quarter of the pairs to height and width", SPEC,
           "quarter = self.head_dim // 8", "quarter = self.head_dim // 4", "killed"),
    Mutant("M38", "the rotary frequency base is 10000", SPEC,
           "return 10000.0 ** (-2.0 * ranks / self.head_dim)",
           "return 1000.0 ** (-2.0 * ranks / self.head_dim)", "killed"),
    Mutant("M39", "PTD's integer product is exact only up to 2**24", METRICS,
           "1 << 24", "1 << 40", "killed"),
    Mutant("M40", "PTD's integer product takes integer indices only", METRICS,
           " and np.all(np.trunc(values) == values)", "", "killed"),
]


def check(mutant: Mutant, root: Path = ROOT) -> str:
    """The text of the mutant's file, after checking that its old text occurs
    there exactly once and differs from its new text."""
    text = (root / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1 or mutant.old == mutant.new:
        raise ValueError(f"{mutant.id}: old text occurs {count} times in {mutant.path}"
                         f"{' and equals the new text' if mutant.old == mutant.new else ''}; "
                         f"update or retire it in tools/mutants.py")
    return text


def first_failure(output: str) -> str:
    """The node id of pytest's first FAILED or ERROR summary line."""
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            return rest.split(" - ", 1)[0]
    return "-"


def run(mutant: Mutant) -> tuple[str, float, str]:
    """(fate, seconds, first failing test) of tier-1 on a mutated copy."""
    text = check(mutant)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, work / name)
        (work / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src")
        start = time.monotonic()
        try:
            proc = subprocess.run(PYTEST, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", time.monotonic() - start, f"(timeout after {TIMEOUT_S} s)"
        seconds = time.monotonic() - start
    # pytest: 0 all passed, 1 a test failed, 2 interrupted (a collection error)
    fate = {0: "survived", 1: "killed", 2: "killed"}.get(proc.returncode,
                                                          f"error (exit {proc.returncode})")
    return fate, seconds, first_failure(proc.stdout)


def main(ids: list[str]) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown mutant id: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[i] for i in ids] if ids else MUTANTS
    for mutant in chosen:  # every old text is checked before anything runs
        check(mutant)
    mismatches = 0
    counts: dict[str, int] = {}
    for mutant in chosen:
        fate, seconds, failure = run(mutant)
        expected = "survived" if mutant.expected.startswith("equivalent") else "killed"
        ok = fate == expected
        mismatches += not ok
        counts[fate] = counts.get(fate, 0) + 1
        print(f"{mutant.id}  {fate:<8} {seconds:6.1f}s  {'ok ' if ok else 'BAD'}  "
              f"{mutant.rule}  [{failure}]", flush=True)
    summary = ", ".join(f"{n} {fate}" for fate, n in sorted(counts.items()))
    print(f"{len(chosen)} mutants: {summary}; "
          f"{mismatches} fate(s) differ from the expected one")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
