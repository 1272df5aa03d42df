"""Command-line front end: PTD tables, projection stage dumps, attention runs.

Exit codes: 0 success, 2 usage or validation error, 1 internal error. A
stdout closed before the output is written (`| head -1`) also exits 1, with
nothing on stderr.

At load time only the numpy-free `spec` is imported. Every input rule lives
in `spec` or here, so a rejected call exits before numpy loads and only a
non-finite PTD is left for the computation to find; each subcommand imports
the compute modules it uses once its input is checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .spec import SCHEME_NAMES, STAGE_NAMES, AutoRadius, CipConfig, CircleRopeError, \
    FixedRadius, GridSpec, RotaryParams, ScheduleStrategy, Segment, integer, make_schedule, \
    parse_layout, token_counts

# Size limits, checked before anything of that size is allocated; beyond them
# the CLI exits 2. The README's "CLI" section gives the peaks measured at them.
MAX_TOKENS = 1 << 18  # the index arrays of every subcommand
MAX_CELLS = 1 << 26  # text x image pairs: PTD time, attn's (T, I) logit table
MAX_LAYERS = 1 << 10  # the attn report
MAX_HEAD_DIM = 1 << 9  # attn's rotation arrays
MAX_TOKEN_DIMS = 1 << 24  # tokens x head_dim: attn's (tokens, head_dim) arrays


class UsageError(CircleRopeError, argparse.ArgumentTypeError):
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
    except ValueError as exc:  # a CircleRopeError among them
        raise UsageError(f"bad radius {text!r}: {exc}") from None


def parse_schemes(text: str) -> tuple[str, ...]:
    """Comma-separated scheme names, e.g. `hard,circle`."""
    schemes = tuple(name.strip() for name in text.split(","))
    for scheme in schemes:
        if scheme not in SCHEME_NAMES:
            raise UsageError(f"unknown scheme {scheme!r} (choose from {', '.join(SCHEME_NAMES)})")
    return schemes


def parse_sections(text: str) -> tuple[int, ...]:
    """Three comma-separated rotary pair counts, e.g. `16,8,8`."""
    try:
        sections = tuple(integer(count) for count in text.split(","))
    except ValueError:
        sections = ()
    if len(sections) != 3:
        raise UsageError(f"bad sections {text!r}: expected three comma-separated counts")
    return sections


def parse_seed(text: str) -> int:
    """A non-negative integer, as numpy's default_rng requires."""
    try:
        if integer(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise UsageError(f"bad seed {text!r}: expected a non-negative integer")


def load_config_file(path: str, options: dict[str, argparse.Action]) -> dict[str, object]:
    """Read key=value lines; `#` starts a comment. Flags override these values.

    Each key must name an option of some subcommand (by its dest), and its
    value passes that option's own type converter and choices, as a flag does.
    """
    values: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {line!r} in {path}")
                key, val = line.split("=", 1)
                key, val = key.strip().replace("-", "_"), val.strip()
                val = val[1:-1] if len(val) > 1 and val[0] == val[-1] == '"' else val
                if key not in options:
                    raise UsageError(f"unknown config key {key!r} in {path}")
                action = options[key]
                try:
                    value = action.type(val) if action.type else val
                except ValueError as exc:
                    raise UsageError(f"bad config value {key}={val!r} in {path}: {exc}") from None
                if action.choices is not None and value not in action.choices:
                    raise UsageError(f"bad config value {key}={val!r} in {path} "
                                     f"(choose from {', '.join(action.choices)})")
                values[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return values


def _inputs(args: argparse.Namespace, pairs: bool = True) -> tuple[list[Segment], CipConfig]:
    """The --layout segments, within MAX_TOKENS and, if `pairs`, with text and
    image within MAX_CELLS, and the config of --alpha, --radius and --beta,
    with the radius resolved on every image."""
    segments = parse_layout(args.layout)
    text, image = token_counts(segments)
    if text + image > MAX_TOKENS:
        raise UsageError(f"layout has {text + image} tokens, over the limit of {MAX_TOKENS}")
    if pairs and text * image > MAX_CELLS:
        raise UsageError(f"layout has {text} x {image} = {text * image} text-image pairs, "
                         f"over the limit of {MAX_CELLS}")
    if pairs and not (text and image):
        raise UsageError("layout needs both text and image tokens")
    config = CipConfig(args.alpha, args.radius, args.beta)
    for grid in (seg for seg in segments if isinstance(seg, GridSpec)):
        config.radius.resolve(grid)
    return segments, config


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    elif fmt == "json":
        out.write(json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n")
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def cmd_ptd(args: argparse.Namespace, out) -> int:
    segments, config = _inputs(args)
    from .metrics import distance_matrix, ptd
    from .schemes import assign
    rows = []
    for scheme in args.schemes:
        matrix = distance_matrix(assign(scheme, segments, config))
        rows.append([scheme, _fmt(ptd(matrix)), matrix.convention])
    _emit_rows(["scheme", "ptd", "distance_convention"], rows, args.format, out)
    return 0


def cmd_project(args: argparse.Namespace, out) -> int:
    segments, config = _inputs(args, pairs=False)
    grids = [seg for seg in segments if isinstance(seg, GridSpec)]
    if not grids:
        raise UsageError("layout has no image segment to project")
    from .geometry import cip_transform
    rows = []
    for grid in grids:
        for point in getattr(cip_transform(grid, config), args.stage).tolist():
            rows.append([str(len(rows))] + [_fmt(c) for c in point])
    _emit_rows(["token_id", "x", "y", "z"], rows, args.format, out)
    return 0


def cmd_attn(args: argparse.Namespace, out) -> int:
    segments, config = _inputs(args)
    head_dim, layers = args.head_dim, args.layers
    if head_dim > MAX_HEAD_DIM:
        raise UsageError(f"head-dim {head_dim} is over the limit of {MAX_HEAD_DIM}")
    tokens = sum(token_counts(segments))
    if tokens * head_dim > MAX_TOKEN_DIMS:
        raise UsageError(f"layout has {tokens} tokens x head-dim {head_dim} = "
                         f"{tokens * head_dim}, over the limit of {MAX_TOKEN_DIMS}")
    if layers > MAX_LAYERS:
        raise UsageError(f"layers {layers} is over the limit of {MAX_LAYERS}")
    seed = parse_seed(os.environ.get("CIRCLE_ROPE_SEED") or "0") if args.seed is None else args.seed
    params = RotaryParams(head_dim=head_dim, sections=args.sections)
    schedule = make_schedule(layers, ScheduleStrategy(args.schedule))
    from .harness import run_experiment
    report = run_experiment(segments, config, schedule, params, seed=seed, schemes=args.schemes)
    out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="circle-rope")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: str | None) -> None:
        p.add_argument("--layout", required=True, help="e.g. i3x3,t5")
        p.add_argument("--alpha", type=float, default=CipConfig.alpha,
                       help="weight of the spatial-origin angle (default: %(default)s)")
        p.add_argument("--radius", type=parse_radius, default=f"fixed:{CipConfig.radius.value:g}",
                       help="fixed:<R>, auto:<k>, or bare number (default: %(default)s)")
        p.add_argument("--beta", type=float, default=CipConfig.beta,
                       help="fusion weight of the projected circle (default: %(default)s)")
        if fmt is not None:
            p.add_argument("--format", choices=("csv", "json", "table"), default=fmt,
                           help="output format (default: %(default)s)")
        p.add_argument("--config", help="key=value config file; flags override")

    p_ptd = sub.add_parser("ptd", help="per-token distance per scheme")
    add_common(p_ptd, "table")
    p_ptd.add_argument("--schemes", "--scheme", type=parse_schemes,
                       default=",".join(SCHEME_NAMES), help="(default: %(default)s)")
    p_ptd.set_defaults(func=cmd_ptd)

    p_proj = sub.add_parser("project", help="dump projection pipeline stages")
    add_common(p_proj, "csv")
    p_proj.add_argument("--stage", required=True, choices=STAGE_NAMES)
    p_proj.set_defaults(func=cmd_project)

    p_attn = sub.add_parser("attn", help="toy attention dispersion report")
    add_common(p_attn, None)
    p_attn.add_argument("--schemes", "--scheme", type=parse_schemes,
                        default=",".join(SCHEME_NAMES), help="(default: %(default)s)")
    p_attn.add_argument("--schedule", choices=[s.value for s in ScheduleStrategy],
                        default="alt", help="circle-index layers (default: %(default)s)")
    p_attn.add_argument("--layers", type=integer, default=36, help="(default: %(default)s)")
    p_attn.add_argument("--seed", type=parse_seed, help="(default: $CIRCLE_ROPE_SEED, else 0)")
    p_attn.add_argument("--head-dim", type=integer, default=64, help="(default: %(default)s)")
    p_attn.add_argument("--sections", type=parse_sections,
                        help="rotary pairs per axis, e.g. 16,8,8 (default: from head-dim)")
    p_attn.set_defaults(func=cmd_attn)
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The options of every subcommand by dest: the keys a config file may set.

    Not `--help`, `--config`, or a required option, which a file value could
    never satisfy."""
    return {action.dest: action for sub in _subcommands(parser).values()
            for action in sub._actions if action.option_strings and not action.required
            and action.dest not in ("help", "config")}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # The file's values become the subcommand's defaults; parsing
            # argv again lets the flags override them.
            values = load_config_file(args.config, _config_options(parser))
            _subcommands(parser)[args.command].set_defaults(**values)
            args = parser.parse_args(argv)
        code = args.func(args, out)
        out.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # Python's recipe: point stdout at devnull so that the interpreter's
        # final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except CircleRopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry point: `main()` for a process that exits once it
    returns. No call makes a reference cycle that holds an array, so the
    cyclic collector would free nothing: it stays off for the call, and the
    heap is frozen so that the interpreter's shutdown collections skip it."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
