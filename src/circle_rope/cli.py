"""Command-line front end: PTD tables, projection stage dumps, attention runs.

Exit codes: 0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .geometry import AutoRadius, CipConfig, FixedRadius, GeometryError, cip_transform, \
    dual_frame_fusion, grid_coords, centralize, spatial_origin_angles, grid_index_angles, \
    mix_angles, compute_radius, map_to_circle
from .harness import HarnessError, RotaryParams, ScheduleStrategy, make_schedule, \
    run_experiment
from .metrics import MetricError, distance_matrix, ptd
from .rope import RopeError
from .schemes import ImageSegment, LayoutError, SCHEME_NAMES, Segment, TextSegment, assign, \
    parse_layout

# Size limits, checked before anything of that size is allocated; beyond them
# the CLI exits 2. Tokens bound the index arrays of every subcommand.
# Text x image cells bound PTD time (PTD holds O(T + I) memory, but visits
# every cell) and the (T, I) float64 logit table of an attention layer, 512 MiB
# at the limit: `attn` on i128x128,t4096 (spatial, 2 layers, head_dim 64)
# peaks at 526 MiB under tracemalloc, the table plus the rotated keys.
# Layers bound the attn report, head_dim its rotation arrays.
MAX_TOKENS = 1 << 18
MAX_CELLS = 1 << 26
MAX_LAYERS = 1 << 10
MAX_HEAD_DIM = 1 << 9


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Bad input to the CLI. Also an ArgumentTypeError, so that argparse
    reports the message of a `type=` converter that raises it."""


def _fmt(value: float) -> str:
    return format(value, ".12g")


def parse_radius(text: str) -> FixedRadius | AutoRadius:
    """Accept `fixed:<R>`, `auto:<k>`, or a bare number meaning fixed."""
    try:
        if text.startswith("fixed:"):
            return FixedRadius(float(text.split(":", 1)[1]))
        if text.startswith("auto:"):
            return AutoRadius(float(text.split(":", 1)[1]))
        return FixedRadius(float(text))
    except (ValueError, GeometryError) as exc:
        raise UsageError(f"bad radius {text!r}: {exc}") from None


def load_config_file(path: str, options: dict[str, argparse.Action]) -> dict[str, str]:
    """Read key=value lines; `#` starts a comment. Flags override these values.

    Each key must name an option of some subcommand (by its dest), and a value
    must be one of that option's choices, if it has any.
    """
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {line!r} in {path}")
                key, val = line.split("=", 1)
                key, val = key.strip().replace("-", "_"), val.strip().strip('"')
                if key not in options:
                    raise UsageError(f"unknown config key {key!r} in {path}")
                choices = options[key].choices
                if choices is not None and val not in choices:
                    raise UsageError(f"bad config value {key}={val!r} in {path} "
                                     f"(choose from {', '.join(choices)})")
                values[key] = val
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, name: str, default, cast=str):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    file_values = getattr(args, "_config_values", {})
    if name in file_values:
        try:
            return cast(file_values[name])
        except ValueError as exc:
            raise UsageError(f"bad config value {name}={file_values[name]!r}: {exc}") from None
    return default


def _resolve_seed(args: argparse.Namespace) -> int:
    seed = _resolve(args, "seed", None, int)
    if seed is not None:
        return int(seed)
    env = os.environ.get("CIRCLE_ROPE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(f"bad CIRCLE_ROPE_SEED {env!r}") from None


def _layout(args: argparse.Namespace, pairs: bool = True) -> list[Segment]:
    """The --layout segments, within MAX_TOKENS and, if `pairs`, MAX_CELLS."""
    segments = parse_layout(args.layout)
    text = sum(seg.length for seg in segments if isinstance(seg, TextSegment))
    image = sum(seg.grid.num_tokens for seg in segments if isinstance(seg, ImageSegment))
    if text + image > MAX_TOKENS:
        raise UsageError(f"layout has {text + image} tokens, over the limit of {MAX_TOKENS}")
    if pairs and text * image > MAX_CELLS:
        raise UsageError(f"layout has {text} x {image} = {text * image} text-image pairs, "
                         f"over the limit of {MAX_CELLS}")
    return segments


def _bounded(args: argparse.Namespace, name: str, default: int, limit: int) -> int:
    value = int(_resolve(args, name, default, int))
    if value > limit:
        raise UsageError(f"{name.replace('_', '-')} {value} is over the limit of {limit}")
    return value


def _cip_config(args: argparse.Namespace) -> CipConfig:
    return CipConfig(
        alpha=float(_resolve(args, "alpha", 0.5, float)),
        radius=_resolve(args, "radius", FixedRadius(10.0), parse_radius),
        beta=float(_resolve(args, "beta", 0.1, float)),
    )


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    elif fmt == "json":
        out.write(json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n")
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def cmd_ptd(args: argparse.Namespace, out) -> int:
    segments = _layout(args)
    config = _cip_config(args)
    schemes = _resolve(args, "schemes", "hard,unordered,spatial,circle").split(",")
    rows = []
    for scheme in schemes:
        scheme = scheme.strip()
        if scheme not in SCHEME_NAMES:
            raise UsageError(f"unknown scheme {scheme!r}")
        matrix = distance_matrix(assign(scheme, segments, config))
        rows.append([scheme, _fmt(ptd(matrix)), matrix.convention])
    _emit_rows(["scheme", "ptd", "distance_convention"], rows,
               _resolve(args, "format", "table"), out)
    return 0


_STAGES = ("centered", "circle2d", "projected", "fused")


def cmd_project(args: argparse.Namespace, out) -> int:
    segments = _layout(args, pairs=False)
    config = _cip_config(args)
    stage = args.stage
    if stage not in _STAGES:
        raise UsageError(f"unknown stage {stage!r} (choose from {', '.join(_STAGES)})")
    images = [seg for seg in segments if isinstance(seg, ImageSegment)]
    if not images:
        raise UsageError("layout has no image segment to project")
    rows = []
    token_id = 0
    for seg in images:
        grid = seg.grid
        if stage == "centered":
            coords, _ = centralize(grid_coords(grid))
        elif stage == "circle2d":
            centered, _ = centralize(grid_coords(grid))
            mixed = mix_angles(spatial_origin_angles(centered), grid_index_angles(grid),
                               config.alpha)
            coords = map_to_circle(mixed, compute_radius(centered, config.radius))
        else:
            projected, centered = cip_transform(grid, config)
            coords = projected if stage == "projected" else \
                dual_frame_fusion(projected, centered, config.beta)
        for point in coords:
            rows.append([str(token_id)] + [_fmt(c) for c in point])
            token_id += 1
    _emit_rows(["token_id", "x", "y", "z"], rows, _resolve(args, "format", "csv"), out)
    return 0


def cmd_attn(args: argparse.Namespace, out) -> int:
    segments = _layout(args)
    config = _cip_config(args)
    head_dim = _bounded(args, "head_dim", 64, MAX_HEAD_DIM)
    sections_text = _resolve(args, "sections", None)
    if sections_text is None:
        half = head_dim // 2
        sections = (half - 2 * (half // 4), half // 4, half // 4)
    else:
        try:
            parts = tuple(int(s) for s in str(sections_text).split(","))
        except ValueError:
            raise UsageError(f"bad sections {sections_text!r}") from None
        if len(parts) != 3:
            raise UsageError(f"sections must be three counts, got {sections_text!r}")
        sections = parts
    params = RotaryParams(head_dim=head_dim, sections=sections)
    strategy = ScheduleStrategy(_resolve(args, "schedule", "alt"))
    schedule = make_schedule(_bounded(args, "layers", 36, MAX_LAYERS), strategy)
    schemes = tuple(s.strip() for s in _resolve(args, "schemes",
                                                "hard,unordered,spatial,circle").split(","))
    for scheme in schemes:
        if scheme not in SCHEME_NAMES:
            raise UsageError(f"unknown scheme {scheme!r}")
    report = run_experiment(segments, config, schedule, params,
                            seed=_resolve_seed(args), schemes=schemes)
    out.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="circle-rope")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--layout", required=True, help="e.g. i3x3,t5")
        p.add_argument("--alpha", type=float)
        p.add_argument("--radius", type=parse_radius, help="fixed:<R>, auto:<k>, or bare number")
        p.add_argument("--beta", type=float)
        p.add_argument("--format", choices=("csv", "json", "table"))
        p.add_argument("--config", help="key=value config file; flags override")

    p_ptd = sub.add_parser("ptd", help="per-token distance per scheme")
    add_common(p_ptd)
    p_ptd.add_argument("--schemes", "--scheme", dest="schemes")
    p_ptd.set_defaults(func=cmd_ptd)

    p_proj = sub.add_parser("project", help="dump projection pipeline stages")
    add_common(p_proj)
    p_proj.add_argument("--stage", required=True)
    p_proj.set_defaults(func=cmd_project)

    p_attn = sub.add_parser("attn", help="toy attention dispersion report")
    add_common(p_attn)
    p_attn.add_argument("--schemes", "--scheme", dest="schemes")
    p_attn.add_argument("--schedule", choices=[s.value for s in ScheduleStrategy])
    p_attn.add_argument("--layers", type=int)
    p_attn.add_argument("--seed", type=int)
    p_attn.add_argument("--head-dim", dest="head_dim", type=int)
    p_attn.add_argument("--sections")
    p_attn.set_defaults(func=cmd_attn)
    return parser


def _config_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The options of every subcommand by dest: the keys a config file may set."""
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action for sub in subcommands.choices.values()
            for action in sub._actions if action.option_strings and action.dest != "help"}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args._config_values = load_config_file(args.config, _config_options(parser)) \
            if args.config else {}
        return args.func(args, out)
    except (UsageError, LayoutError, GeometryError, MetricError, RopeError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
