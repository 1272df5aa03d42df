"""Seeded inputs of the three benchmark workloads, and the work they imply.

Pure Python on purpose: the runner and the worker both import this module,
and neither may pay for numpy here before its own timing starts.

Every workload is a pool of inputs built from the seed. The worker runs the
pool in whole passes ("cycles"), each pass in a fresh seeded order, so the
mix of operation sizes in a run is the same for every seed while the inputs
themselves differ.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ptd-sweep", "attn-depth", "cli-mix")
SCHEMES = ("hard", "unordered", "spatial", "circle")
SCHEDULES = ("all", "upper", "lower", "alt")
ROTARY_CONFIGS = ((64, (16, 8, 8)), (128, (16, 24, 24)))
ATTN_LAYERS = 36

# (name, image tokens, text tokens, layouts per pool). Each stratum fixes the
# total token counts, so an operation's cost depends on its stratum and barely
# on the seed; the seed only moves image shapes, image count and segment order.
# The median falls inside "medium" and p90 inside "large" for every seed.
PTD_STRATA = (
    ("tiny", 64, 16, 4),
    ("small", 256, 64, 4),
    ("medium", 1024, 256, 8),
    ("large", 4096, 256, 6),
    ("xl", 4096, 1024, 2),  # the (T, I, 3) float64 temporary is ~100 MB
)
ATTN_STRATA = (
    ("small", 256, 32),
    ("medium", 1024, 64),
    ("large", 1600, 160),
)
# Image splits: one image, or shares of the stratum's image tokens.
_IMAGE_SPLITS = ((1,), (2, 2), (2, 4, 4), (4, 4, 4, 4))


def parse_layout(text: str) -> list[tuple]:
    """The layout grammar, parsed independently of the program:
    ("t", n) for a text run, ("i", w, h) for an image."""
    segments = []
    for part in text.split(","):
        if part.startswith("t"):
            segments.append(("t", int(part[1:])))
        else:
            w, h = part[1:].split("x")
            segments.append(("i", int(w), int(h)))
    return segments


def token_counts(layout: str) -> tuple[int, int]:
    """(text tokens, image tokens) of a layout."""
    text = image = 0
    for seg in parse_layout(layout):
        if seg[0] == "t":
            text += seg[1]
        else:
            image += seg[1] * seg[2]
    return text, image


def _image_shape(rng: random.Random, tokens: int, max_side: int) -> tuple[int, int]:
    shapes = [(w, tokens // w) for w in range(1, max_side + 1)
              if tokens % w == 0 and tokens // w <= max_side
              and max(w, tokens // w) <= 4 * min(w, tokens // w)]
    return rng.choice(shapes)


def _mixed_layout(rng: random.Random, image_tokens: int, text_tokens: int,
                  max_side: int) -> str:
    split = rng.choice(_IMAGE_SPLITS)
    parts = []
    for share in split:
        w, h = _image_shape(rng, image_tokens // share, max_side)
        parts.append(f"i{w}x{h}")
    runs = rng.randint(1, min(3, text_tokens))
    cuts = sorted(rng.sample(range(1, text_tokens), runs - 1))
    bounds = [0, *cuts, text_tokens]
    parts += [f"t{b - a}" for a, b in zip(bounds, bounds[1:])]
    rng.shuffle(parts)
    return ",".join(parts)


def ptd_sweep_inputs(seed: int) -> list[str]:
    """Layouts with 1-4 images up to 64x64 and text up to 1024 tokens."""
    rng = random.Random(f"ptd-sweep:{seed}")
    return [_mixed_layout(rng, image, text, 64)
            for _, image, text, count in PTD_STRATA for _ in range(count)]


def attn_depth_inputs(seed: int) -> list[dict]:
    """One run_experiment per stratum x schedule x rotary config, 36 layers."""
    rng = random.Random(f"attn-depth:{seed}")
    pool = []
    for _, image, text in ATTN_STRATA:
        for schedule in SCHEDULES:
            for head_dim, sections in ROTARY_CONFIGS:
                pool.append({
                    "layout": _mixed_layout(rng, image, text, 48),
                    "schedule": schedule,
                    "head_dim": head_dim,
                    "sections": list(sections),
                    "seed": rng.randrange(2**31),
                })
    return pool


def cycle_order(seed: int, cycle: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"order:{seed}:{cycle}").shuffle(order)
    return order


# ---------------------------------------------------------------- cli-mix

def _case(case_id, argv, config=None, env=None):
    return {"id": case_id, "argv": list(argv), "config": config, "env": env or {}}


def cli_cases() -> list[dict]:
    """Fixed catalogue of CLI calls. Expected exit codes and stdout digests,
    recorded from the unmodified program, live in cli_expected.json; the
    seed only orders the calls."""
    cases = [
        # README examples and the acceptance argsets (criterion 10).
        _case("readme-ptd", ["ptd", "--layout", "i3x3,t5", "--beta", "1",
                             "--schemes", "hard,unordered,spatial,circle"]),
        _case("readme-project", ["project", "--layout", "i3x3,t1", "--stage", "projected",
                                 "--alpha", "0.5", "--radius", "10", "--format", "csv"]),
        _case("readme-attn", ["attn", "--layout", "i3x3,t5", "--schedule", "alt", "--layers",
                              "4", "--seed", "7", "--head-dim", "8", "--sections", "2,1,1"]),
        _case("accept-ptd", ["ptd", "--layout", "i3x3,t5", "--beta", "1", "--format", "csv"]),
        _case("accept-project", ["project", "--layout", "i4x3,t2", "--stage", "projected",
                                 "--format", "json"]),
        _case("accept-attn", ["attn", "--layout", "i3x3,t5", "--seed", "42", "--layers", "4",
                              "--head-dim", "8", "--sections", "2,1,1"]),
    ]
    for layout in ("i3x3,t1", "i64x64,t8"):
        for stage in ("centered", "circle2d", "projected", "fused"):
            for fmt in ("csv", "json", "table"):
                cases.append(_case(f"project-{layout}-{stage}-{fmt}",
                                   ["project", "--layout", layout, "--stage", stage,
                                    "--format", fmt]))
    cases += [
        _case("project-auto-alpha0", ["project", "--layout", "i8x8,t2", "--stage", "circle2d",
                                      "--radius", "auto:2", "--alpha", "0"]),
        _case("project-alpha1-beta0", ["project", "--layout", "i8x6,t2", "--stage", "fused",
                                       "--alpha", "1", "--beta", "0", "--format", "table"]),
        _case("project-two-images", ["project", "--layout", "i5x4,t3,i16x12", "--stage",
                                     "fused", "--radius", "fixed:4", "--format", "json"]),
        _case("ptd-table", ["ptd", "--layout", "t8,i8x8,t8"]),
        _case("ptd-json", ["ptd", "--layout", "i16x16,t32,i8x8", "--format", "json"]),
        _case("ptd-csv-large", ["ptd", "--layout", "i32x32,t64", "--format", "csv"]),
        _case("ptd-auto-radius", ["ptd", "--layout", "i12x9,t20", "--radius", "auto:1.5"]),
        _case("ptd-alpha0-beta0", ["ptd", "--layout", "i6x6,t6", "--alpha", "0", "--beta", "0"]),
        _case("ptd-one-scheme", ["ptd", "--layout", "t3,i10x5,t7", "--scheme", "circle"]),
        _case("attn-hd128", ["attn", "--layout", "i8x8,t16", "--layers", "12", "--head-dim",
                             "128", "--sections", "16,24,24", "--seed", "5"]),
        _case("attn-env-seed", ["attn", "--layout", "t4,i6x6,t4", "--layers", "8",
                                "--head-dim", "32", "--schemes", "circle,spatial"],
              env={"CIRCLE_ROPE_SEED": "11"}),
    ]
    for schedule in SCHEDULES:
        cases.append(_case(f"attn-{schedule}", ["attn", "--layout", "i4x4,t8", "--schedule",
                                                schedule, "--layers", "6", "--head-dim", "16",
                                                "--sections", "4,2,2", "--seed", "3"]))
    cases += [
        _case("config-beta1", ["ptd", "--layout", "i3x3,t5", "--format", "csv"],
              config="beta = 1.0\nalpha = 0.25  # flags win over this\n"),
        _case("config-flag-wins", ["ptd", "--layout", "i3x3,t5", "--beta", "0",
                                   "--format", "csv"],
              config="beta = 1.0\nalpha = 0.25  # flags win over this\n"),
        _case("config-ptd-json", ["ptd", "--layout", "i8x8,t8"],
              config="format = json\nradius = auto:1.5\nschemes = hard,circle\n"),
        _case("config-project", ["project", "--layout", "i6x5,t2", "--stage", "fused"],
              config="alpha=0\nbeta=0.5\nformat=table\nradius=fixed:4\n"),
        _case("config-attn", ["attn", "--layout", "i5x5,t6"],
              config="layers = 6\nschedule = upper\nhead-dim = 16\nsections = 4,2,2\n"
                     "seed = 9\n"),
        # Invalid inputs: each must exit 2 with nothing on stdout.
        _case("bad-config-line", ["ptd", "--layout", "i3x3,t5"],
              config="this line has no equals sign\n"),
        _case("missing-config", ["ptd", "--layout", "i3x3,t5", "--config",
                                 "does-not-exist.cfg"]),
    ]
    invalid = {
        "bad-segment": ["ptd", "--layout", "i3x3,q5"],
        "empty-layout": ["ptd", "--layout", ""],
        "zero-grid": ["ptd", "--layout", "i0x3,t5"],
        "negative-radius": ["ptd", "--layout", "i3x3,t5", "--radius", "fixed:-1"],
        "bad-radius": ["ptd", "--layout", "i3x3,t5", "--radius", "auto:abc"],
        "unknown-scheme": ["ptd", "--layout", "i3x3,t5", "--schemes", "hard,square"],
        "alpha-range": ["ptd", "--layout", "i3x3,t5", "--alpha", "1.5"],
        "format-choice": ["ptd", "--layout", "i3x3,t5", "--format", "xml"],
        "no-image": ["project", "--layout", "t5", "--stage", "fused"],
        "bad-stage": ["project", "--layout", "i3x3", "--stage", "warped"],
        "odd-head-dim": ["attn", "--layout", "i3x3,t5", "--head-dim", "7"],
        "bad-sections": ["attn", "--layout", "i3x3,t5", "--sections", "1,2"],
        "attn-no-text": ["attn", "--layout", "i3x3", "--layers", "2"],
        "zero-layers": ["attn", "--layout", "i3x3,t5", "--layers", "0"],
        "missing-layout": ["ptd"],
        "unknown-command": ["frobnicate"],
    }
    cases += [_case(f"invalid-{name}", argv) for name, argv in invalid.items()]
    return cases


def cli_probes() -> list[dict]:
    """Inputs that must exit 2 with empty stdout. At the seed commit they
    exit 0 (known robustness defects); they run once per cli-mix run and are
    reported on their own, so the defect stays visible until it is fixed."""
    return [
        _case("probe-radius-inf", ["ptd", "--layout", "i3x3,t5", "--radius", "inf"]),
        _case("probe-radius-auto-inf", ["ptd", "--layout", "i3x3,t5", "--radius", "auto:inf"]),
        _case("probe-config-format-xml", ["ptd", "--layout", "i3x3,t5"], config="format=xml\n"),
        _case("probe-config-misspelled-key", ["ptd", "--layout", "i3x3,t5"],
              config="alpah=0.9\n"),
    ]


def cli_argv(case: dict, config_dir: str) -> list[str]:
    """The case's argv, with its config file (written at set-up) appended."""
    argv = list(case["argv"])
    if case["config"] is not None:
        argv += ["--config", f"{config_dir}/{case['id']}.cfg"]
    return argv


def write_cli_configs(cases: list[dict], config_dir: str) -> None:
    for case in cases:
        if case["config"] is not None:
            with open(f"{config_dir}/{case['id']}.cfg", "w") as fh:
                fh.write(case["config"])


def _cli_settings(case: dict) -> dict:
    """Defaults, then config-file values, then flags: what a valid CLI call
    computes on (used only for the computed work counts)."""
    argv = case["argv"]
    settings = {"command": argv[0], "schemes": ",".join(SCHEMES), "layers": "36",
                "schedule": "alt", "head_dim": "64"}
    for line in (case["config"] or "").splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=", 1)
            settings[key.strip().replace("-", "_")] = value.strip()
    for flag, value in zip(argv[1::2], argv[2::2]):
        settings[flag.lstrip("-").replace("-", "_")] = value
    if settings.get("scheme"):
        settings["schemes"] = settings.pop("scheme")
    return settings


# ---------------------------------------------------------------- computed work

def schedule_variants(num_layers: int, schedule: str) -> list[str]:
    """Per-layer index variant, written from the paper's schedule definitions:
    alternating puts circle indices on even layers, upper/lower split at
    ceil(n/2)."""
    split = math.ceil(num_layers / 2)
    rule = {
        "all": lambda layer: True,
        "upper": lambda layer: layer > split,
        "lower": lambda layer: layer <= split,
        "alt": lambda layer: layer % 2 == 0,
    }[schedule]
    return ["circle" if rule(layer) else "original" for layer in range(1, num_layers + 1)]


def attn_layer_evals(schemes, num_layers: int, schedule: str) -> int:
    """Distinct per-layer statistic computations of one run_experiment: the
    circle scheme needs one per variant its schedule uses, the others one."""
    variants = len(set(schedule_variants(num_layers, schedule)))
    return sum(variants if scheme == "circle" else 1 for scheme in schemes)


def _ptd_work(layout: str, schemes) -> dict:
    text, image = token_counts(layout)
    return {"distance_cells": len(schemes) * text * image}


def _attn_work(layout: str, schemes, num_layers: int, schedule: str, head_dim: int) -> dict:
    text, image = token_counts(layout)
    evals = attn_layer_evals(schemes, num_layers, schedule)
    return {"distance_cells": evals * text * image,
            "rotations": evals * (text + image) * head_dim // 2,
            "logits": evals * text * image}


def computed_work(workload: str, pool: list) -> dict:
    """Work one pass over the pool implies, computed from the inputs alone:
    distance cells (text x image pairs), the bytes of their (T, I, 3) float64
    difference tensors, rotary pair rotations and logits. The figures repeat
    exactly for a seed."""
    total = {"distance_cells": 0, "rotations": 0, "logits": 0}
    for item in pool:
        if workload == "ptd-sweep":
            work = _ptd_work(item, SCHEMES)
        elif workload == "attn-depth":
            work = _attn_work(item["layout"], SCHEMES, ATTN_LAYERS, item["schedule"],
                              item["head_dim"])
        else:
            work = _cli_case_work(item)
        for key, value in work.items():
            total[key] += value
    total["distance_bytes"] = total["distance_cells"] * 3 * 8
    return total


def _cli_case_work(case: dict) -> dict:
    if case["id"].startswith(("invalid-", "bad-", "missing-")):
        return {}
    s = _cli_settings(case)
    schemes = [name.strip() for name in s["schemes"].split(",")]
    if s["command"] == "ptd":
        return _ptd_work(s["layout"], schemes)
    if s["command"] == "attn":
        return _attn_work(s["layout"], schemes, int(s["layers"]), s["schedule"],
                          int(s["head_dim"]))
    return {}


def max_working_set_bytes(workload: str, pool: list) -> int:
    """Largest (T, I, 3) float64 difference tensor one operation builds."""
    if workload == "cli-mix":
        layouts = [_cli_settings(c)["layout"] for c in pool
                   if _cli_case_work(c).get("distance_cells")]
    else:
        layouts = [item if workload == "ptd-sweep" else item["layout"] for item in pool]
    return max(24 * t * i for t, i in map(token_counts, layouts))
