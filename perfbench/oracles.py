"""Independent reference answers the benchmark checks the program against.

Nothing here imports circle_rope. Indices are rebuilt from the paper's
definitions with vectorised numpy, distances come from scipy's cdist, and the
attention statistics from one batched rotation per layer variant. scipy is a
benchmark-only dependency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from workloads import ATTN_LAYERS, SCHEMES, parse_layout, schedule_variants

# Default projection config of the library and the CLI.
ALPHA, RADIUS, BETA = 0.5, 10.0, 0.1
TOLERANCE = 1e-9


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


def _circle_block(w: int, h: int) -> np.ndarray:
    """Fused circle coordinates of a w x h grid, centred on the origin."""
    n = w * h
    rows, cols = np.divmod(np.arange(n), w)
    points = np.stack([np.zeros(n), rows, cols], axis=1).astype(float)
    centered = points - 0.5 * (points.max(axis=0) + points.min(axis=0))
    raw = np.arctan2(centered[:, 1], centered[:, 2])
    delta = raw.max() - raw.min()
    sa = np.mod((raw - raw.min()) / delta * 2 * np.pi, 2 * np.pi) if delta > 0 else np.zeros(n)
    ga = np.arange(n) / n * 2 * np.pi
    mixed = ALPHA * sa + (1 - ALPHA) * ga
    normal = np.ones(3) / math.sqrt(3.0)
    u = np.array([-normal[1], normal[0], 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    projected = np.outer(RADIUS * np.cos(mixed), u) + np.outer(RADIUS * np.sin(mixed), v)
    return BETA * projected + (1 - BETA) * centered


def indices(layout: str, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """(text, image) index arrays of a layout under one scheme."""
    text, image = [], []
    counter = 0
    for seg in parse_layout(layout):
        if seg[0] == "t":
            text.append(np.repeat(np.arange(counter, counter + seg[1], dtype=float)[:, None],
                                  3, axis=1))
            counter += seg[1]
            continue
        w, h = seg[1], seg[2]
        rows, cols = np.divmod(np.arange(w * h), w)
        if scheme == "hard":
            block = np.repeat((counter + np.arange(w * h, dtype=float))[:, None], 3, axis=1)
            counter += w * h
        elif scheme == "unordered":
            block = np.full((w * h, 3), float(counter))
            counter += 1
        elif scheme == "spatial":
            block = np.stack([np.full(w * h, counter), counter + rows, counter + cols],
                             axis=1).astype(float)
            counter += max(w, h)
        else:
            block = _circle_block(w, h) + float(counter)
            counter += max(w, h)
        image.append(block)
    return np.concatenate(text), np.concatenate(image)


def ptd(text: np.ndarray, image: np.ndarray) -> tuple[float, str]:
    """PTD and distance convention, with the library's convention rule."""
    text_rep = bool(np.all(text == text[:, :1]))
    if text_rep and bool(np.all(image == image[:, :1])):
        axes, convention = slice(0, 1), "scalar"
    elif text_rep and bool(np.all(image[:, 0] == image[0, 0])):
        axes, convention = slice(1, 3), "planar"
    else:
        axes, convention = slice(0, 3), "3d"
    values = cdist(text[:, axes], image[:, axes])
    return float(np.abs(values - values.mean(axis=1, keepdims=True)).mean()), convention


def ptd_table(layout: str) -> list:
    """[[ptd, convention], ...] for the four schemes, as `circle-rope ptd`."""
    return [list(ptd(*indices(layout, scheme))) for scheme in SCHEMES]


def _layer_stats(text, image, queries, key, head_dim, sections) -> dict:
    axes = np.repeat(np.arange(3), sections)
    ranks = np.concatenate([np.arange(s) for s in sections])
    freqs = 10000.0 ** (-2.0 * ranks / head_dim)

    def rotate(vectors, idx):
        angles = idx[:, axes] * freqs
        cos, sin = np.cos(angles), np.sin(angles)
        even, odd = vectors[:, 0::2], vectors[:, 1::2]
        out = np.empty_like(vectors)
        out[:, 0::2] = even * cos - odd * sin
        out[:, 1::2] = even * sin + odd * cos
        return out

    logits = rotate(queries, text) @ rotate(np.broadcast_to(key, (len(image), head_dim)),
                                            image).T
    return {"mean": float(logits.mean()), "std": float(logits.std()),
            "spread": float((logits.max(axis=1) - logits.min(axis=1)).max()),
            "ptd": ptd(text, image)[0]}


def attention_report(item: dict) -> dict:
    """run_experiment's report for one attn-depth input: scheme -> layer ->
    {mean, std, spread, ptd}. Queries and key come from the seeded generator
    in the order the harness documents: one query per text token, then the
    shared key."""
    head_dim, sections = item["head_dim"], tuple(item["sections"])
    seqs = {scheme: indices(item["layout"], scheme) for scheme in SCHEMES}
    n_text = len(seqs["hard"][0])
    rng = np.random.default_rng(item["seed"])
    scale = 1.0 / math.sqrt(head_dim)
    queries = rng.standard_normal((n_text, head_dim)) * scale
    key = rng.standard_normal(head_dim) * scale
    variants = schedule_variants(ATTN_LAYERS, item["schedule"])
    report = {}
    for scheme in SCHEMES:
        cache = {}
        layers = {}
        for layer, variant in enumerate(variants, start=1):
            kind = "original" if scheme == "circle" and variant == "original" else "own"
            if kind not in cache:
                text, image = seqs["spatial"] if kind == "original" else seqs[scheme]
                cache[kind] = _layer_stats(text, image, queries, key, head_dim, sections)
            layers[str(layer)] = cache[kind]
        report[scheme] = layers
    return report


def report_matches(report, expected: dict) -> bool:
    if not isinstance(report, dict) or report.keys() != expected.keys():
        return False
    for scheme, layers in expected.items():
        if report[scheme].keys() != layers.keys():
            return False
        for layer, stats in layers.items():
            got = report[scheme][layer]
            if got.keys() != stats.keys() or not all(close(got[k], v) for k, v in stats.items()):
                return False
    return True


def table_matches(table, expected: list) -> bool:
    return (isinstance(table, list) and len(table) == len(expected)
            and all(row[1] == conv and close(row[0], value)
                    for row, (value, conv) in zip(table, expected)))
