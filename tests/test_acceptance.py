"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import time

import numpy as np

from circle_rope.cli import main
from circle_rope.geometry import (
    AutoRadius,
    CipConfig,
    FixedRadius,
    GridSpec,
    build_plane_basis,
    centralize,
    cip_transform,
    dual_frame_fusion,
    grid_coords,
    grid_index_angles,
    mix_angles,
    spatial_origin_angles,
)
from circle_rope.harness import ScheduleStrategy, make_schedule, run_experiment
from circle_rope.metrics import DistanceMatrix, distance_matrix, ptd, ptd_of
from circle_rope.rope import RotaryParams, apply_rotary, logit, rotation_angles
from circle_rope.schemes import assign, parse_layout
from test_metrics import brute_force_ptd
from test_rope import reference_1d_rope
import workloads


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {criterion} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_ptd_table():
    start = time.monotonic()
    layout = parse_layout("i3x3,t5")
    hard = ptd_of(assign("hard", layout))
    unordered = ptd_of(assign("unordered", layout))
    spatial_matrix = distance_matrix(assign("spatial", layout))
    spatial = ptd(spatial_matrix)
    circle = ptd_of(assign("circle", layout, CipConfig(radius=FixedRadius(10.0), beta=1.0)))
    elapsed = time.monotonic() - start
    ok = (
        abs(hard - 2.22) <= 0.01
        and unordered == 0.0
        and circle <= 1e-9
        and 0.60 <= spatial <= 0.70
        and elapsed < 1.0
    )
    detail = (
        f"(PTD table i3x3,t5: hard={hard:.4f}, unordered={unordered}, "
        f"spatial={spatial:.4f} [{spatial_matrix.convention} convention, image-first "
        f"image (j,i), text scalars 3..7], circle={circle:.2e}, {elapsed:.2f}s)"
    )
    report(1, ok, detail)


def test_criterion_2_equidistance_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        w = int(rng.integers(1, 33))
        h = int(rng.integers(1, 33))
        if w * h == 1:
            w = 2
        strategy = rng.choice(["fixed", "auto"])
        if strategy == "fixed":
            radius = FixedRadius(float(rng.uniform(1, 50)))
        else:
            radius = AutoRadius(float(rng.choice([1.0, 2.0])))
        config = CipConfig(alpha=float(rng.uniform(0, 1)), radius=radius)
        projected = cip_transform(GridSpec(w, h), config).projected
        t = float(rng.uniform(-100, 100))
        dists = np.linalg.norm(projected - t * np.ones(3), axis=1)
        worst = max(worst, float(dists.max() - dists.min()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"(equidistance over 200 cases: max spread {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_plane_and_norm_invariants():
    rng = np.random.default_rng(3)
    n, _, _ = build_plane_basis()
    worst_norm = worst_plane = 0.0
    for _ in range(200):
        w = int(rng.integers(1, 33))
        h = int(rng.integers(1, 33))
        if w * h == 1:
            h = 2
        radius = float(rng.uniform(1, 50))
        config = CipConfig(alpha=float(rng.uniform(0, 1)), radius=FixedRadius(radius))
        projected = cip_transform(GridSpec(w, h), config).projected
        worst_norm = max(worst_norm, float(np.abs(np.linalg.norm(projected, axis=1) - radius).max()))
        worst_plane = max(worst_plane, float(np.abs(projected @ n).max()))
    ok = worst_norm <= 1e-9 and worst_plane <= 1e-9
    report(3, ok, f"(norm dev {worst_norm:.2e}, plane dev {worst_plane:.2e})")


def test_criterion_4_endpoint_equalities():
    grid = GridSpec(5, 4)
    centered, _ = centralize(grid_coords(grid))
    sa = spatial_origin_angles(centered)
    ga = grid_index_angles(grid)
    alpha_ok = (
        mix_angles(sa, ga, 0.0).tolist() == ga.tolist()
        and mix_angles(sa, ga, 1.0).tolist() == sa.tolist()
    )
    stages = cip_transform(grid, CipConfig(radius=FixedRadius(10.0)))
    projected, cent = stages.projected, stages.centered
    beta1 = dual_frame_fusion(projected, cent, 1.0)
    beta0 = dual_frame_fusion(projected, cent, 0.0)
    beta_ok = (
        np.array_equal(beta1, projected)
        and np.max(np.abs(beta0 - cent)) <= 1e-12
    )
    report(4, alpha_ok and beta_ok, "(alpha/beta endpoints exact)")


def test_criterion_5_ptd_oracle_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n_text = int(rng.integers(1, 65))
        n_image = int(rng.integers(1, 1025))
        text = rng.uniform(0, 100, size=(n_text, 3))
        image = rng.uniform(0, 100, size=(n_image, 3))
        production = ptd(DistanceMatrix(text, image))
        brute = brute_force_ptd(np.linalg.norm(text[:, None, :] - image[None, :, :], axis=2))
        worst = max(worst, abs(production - brute))
    report(5, worst <= 1e-12, f"(50 random index sets, max |diff| {worst:.2e})")


def test_criterion_6_rotary_properties():
    rng = np.random.default_rng(6)
    params = RotaryParams(head_dim=16, sections=(4, 2, 2))
    worst_norm = worst_shift = 0.0
    for _ in range(1000):
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        qi = rng.uniform(-50, 50, size=3)
        ki = rng.uniform(-50, 50, size=3)
        c = float(rng.uniform(-50, 50))
        rotated = apply_rotary(q, rotation_angles(qi, params))
        worst_norm = max(worst_norm, abs(np.linalg.norm(rotated) - np.linalg.norm(q)))
        worst_shift = max(
            worst_shift,
            abs(logit(q, qi + c, k, ki + c, params) - logit(q, qi, k, ki, params)),
        )
    params_1d = RotaryParams(head_dim=16, sections=(8, 0, 0))
    worst_1d = 0.0
    for _ in range(100):
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        s_q, s_k = rng.uniform(-30, 30, size=2)
        reference = float(reference_1d_rope(q, s_q, 16) @ reference_1d_rope(k, s_k, 16))
        ours = logit(q, np.full(3, s_q), k, np.full(3, s_k), params_1d)
        worst_1d = max(worst_1d, abs(ours - reference))
    ok = worst_norm <= 1e-9 and worst_shift <= 1e-6 and worst_1d <= 1e-9
    report(6, ok, f"(norm {worst_norm:.2e}, shift {worst_shift:.2e}, 1D equiv {worst_1d:.2e})")


def test_criterion_7_unordered_zero_spread():
    segments = parse_layout("i3x3,t5")
    config = CipConfig(radius=FixedRadius(10.0))
    params = RotaryParams(head_dim=16, sections=(4, 2, 2))
    worst = 0.0
    for strategy in ScheduleStrategy:
        schedule = make_schedule(6, strategy)
        rep = run_experiment(segments, config, schedule, params, seed=7, schemes=("unordered",))
        for stats in rep["unordered"].values():
            worst = max(worst, stats["spread"])
    report(7, worst <= 1e-9, f"(max spread over schedules/layers {worst:.2e})")


def test_criterion_8_age_schedule_conformance():
    ok = True
    for n in range(1, 65):
        schedule = make_schedule(n, ScheduleStrategy.ALTERNATING)
        ok = ok and schedule == tuple(layer % 2 == 0 for layer in range(1, n + 1))
    upper = make_schedule(36, ScheduleStrategy.UPPER_HALF_CIRCLE)
    lower = make_schedule(36, ScheduleStrategy.LOWER_HALF_CIRCLE)
    ok = ok and upper == (False,) * 18 + (True,) * 18
    ok = ok and lower == (True,) * 18 + (False,) * 18
    report(8, ok, "(alternating 1..64, 18/18 split at 36 layers)")


def test_criterion_9_out_of_scope_statement():
    # Published benchmark scores (fine-tuned LVLM evaluations) cannot be
    # reproduced at desk scale; the property suites above stand in for them.
    report(9, True, "(benchmark fine-tuning results out of scope by design)")


def test_criterion_10_cli_determinism():
    # the acceptance argsets, as the benchmark's catalogue holds them
    cases = {case["id"]: case for case in workloads.cli_cases()}
    argsets = [cases[case_id]["argv"] for case_id in ("accept-ptd", "accept-project",
                                                      "accept-attn")]
    ok = True
    for args in argsets:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            code = main(list(args), out=buf)
            ok = ok and code == 0
            outputs.append(buf.getvalue().encode())
        ok = ok and outputs[0] == outputs[1]
    report(10, ok, "(ptd/project/attn byte-identical across reruns)")
