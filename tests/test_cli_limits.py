"""Stated size limits, the --radius converter, and the CLI's two endings:
a finite answer with exit 0, or a message with exit 2 and empty stdout."""

import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from circle_rope import harness
from circle_rope.cli import MAX_CELLS, MAX_HEAD_DIM, MAX_LAYERS, MAX_TOKEN_DIMS, MAX_TOKENS, main
from circle_rope.schemes import parse_layout
from circle_rope.spec import CircleRopeError
import workloads as W


def run_cli(capsys, *argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue(), capsys.readouterr().err


def assert_refused(capsys, message, *argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


class TestLimits:
    def test_tokens(self, capsys):
        assert_refused(capsys, "layout has 262145 tokens, over the limit of 262144",
                       "project", "--layout", f"i{MAX_TOKENS}x1,t1", "--stage", "fused")

    def test_cells(self, capsys):
        # 512 text tokens give the smallest pair count above the limit
        # that stays within the token limit
        image = MAX_CELLS // 512 + 1
        assert 512 * image > MAX_CELLS and 512 + image <= MAX_TOKENS
        message = "layout has 512 x 131073 = 67109376 text-image pairs, over the limit of 67108864"
        assert_refused(capsys, message, "ptd", "--layout", f"t512,i{image}x1")
        assert_refused(capsys, message, "attn", "--layout", f"t512,i{image}x1")

    def test_layers(self, capsys):
        assert_refused(capsys, "layers 1025 is over the limit of 1024",
                       "attn", "--layout", "i3x3,t5", "--layers", str(MAX_LAYERS + 1))

    def test_head_dim(self, capsys):
        assert_refused(capsys, "head-dim 513 is over the limit of 512",
                       "attn", "--layout", "i3x3,t5", "--head-dim", str(MAX_HEAD_DIM + 1))

    def test_tokens_times_head_dim(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("run_experiment reached")

        monkeypatch.setattr(harness, "run_experiment", unreachable)
        # one token more than the limit allows at the largest head_dim
        assert MAX_TOKEN_DIMS // MAX_HEAD_DIM == 32768
        assert_refused(capsys, "layout has 32769 tokens x head-dim 512 = 16777728, "
                       "over the limit of 16777216",
                       "attn", "--layout", "t32768,i1x1", "--head-dim", str(MAX_HEAD_DIM))

    def test_limits_read_from_a_config_file(self, capsys, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text(f"layers = {MAX_LAYERS + 1}\n")
        assert_refused(capsys, "layers 1025 is over the limit of 1024",
                       "attn", "--layout", "i3x3,t5", "--config", str(config))

    def test_huge_grid_is_refused_before_allocation(self, capsys):
        assert_refused(capsys, "layout has 9000000000000000005 tokens, over the limit of 262144",
                       "ptd", "--layout", "i3000000000x3000000000,t5")

    def test_layers_and_head_dim_at_the_limit_run(self, capsys):
        code, stdout, _ = run_cli(capsys, "attn", "--layout", "i2x2,t2", "--layers",
                                  str(MAX_LAYERS), "--head-dim", str(MAX_HEAD_DIM))
        assert code == 0 and stdout

    @pytest.mark.parametrize("argv,size,limit", [
        (["ptd", "--layout", "t512,i256x512", "--schemes", "unordered"], 512 * 256 * 512,
         MAX_CELLS),
        (["ptd", "--layout", "t262143,i1x1", "--schemes", "hard"], 262143 + 1, MAX_TOKENS),
        (["attn", "--layout", "t32767,i1x1", "--head-dim", "512", "--layers", "1",
          "--schemes", "hard"], (32767 + 1) * 512, MAX_TOKEN_DIMS),
    ], ids=["cells", "tokens", "tokens-times-head-dim"])
    def test_layouts_at_the_limit_run(self, capsys, argv, size, limit):
        assert size == limit
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0 and stdout

    def test_every_benchmark_input_is_within_the_limits(self):
        layouts = [layout for seed in range(1, 6) for layout in W.ptd_sweep_inputs(seed)]
        attn_runs = [(item["layout"], item["head_dim"])
                     for seed in range(1, 6) for item in W.attn_depth_inputs(seed)]
        layouts += [layout for layout, _ in attn_runs]
        layouts += [case["argv"][case["argv"].index("--layout") + 1]
                    for case in W.cli_cases() if "--layout" in case["argv"]]
        attn_runs += [(case["argv"][case["argv"].index("--layout") + 1],
                       int(W._cli_settings(case)["head_dim"]))
                      for case in W.cli_cases()
                      if case["argv"][0] == "attn" and "--layout" in case["argv"]]
        for layout in layouts:
            try:
                parse_layout(layout)
            except CircleRopeError:
                continue  # an invalid-input case
            text, image = W.token_counts(layout)
            assert text + image <= MAX_TOKENS and text * image <= MAX_CELLS, layout
        for layout, head_dim in attn_runs:
            assert sum(W.token_counts(layout)) * head_dim <= MAX_TOKEN_DIMS, (layout, head_dim)
        for case in W.cli_cases():
            for flag, limit in (("--layers", MAX_LAYERS), ("--head-dim", MAX_HEAD_DIM)):
                if flag in case["argv"]:
                    assert int(case["argv"][case["argv"].index(flag) + 1]) <= limit
        assert max(W.ROTARY_CONFIGS)[0] <= MAX_HEAD_DIM and W.ATTN_LAYERS <= MAX_LAYERS


class TestRadiusConverter:
    @pytest.mark.parametrize("radius,reason", [("auto:abc", "could not convert"),
                                               ("fixed:-1", "positive and finite"),
                                               ("inf", "positive and finite")])
    def test_reason_is_kept(self, capsys, radius, reason):
        code, stdout, stderr = run_cli(capsys, "ptd", "--layout", "i3x3,t5", "--radius", radius)
        assert (code, stdout) == (2, "")
        assert f"bad radius {radius!r}" in stderr and reason in stderr


class TestAutoRadius:
    """An auto radius resolves on every image before any computation, so the
    subcommand, the schemes and the layer count do not change its outcome."""

    @pytest.mark.parametrize("message,argv", [
        ("degenerate radius", ["attn", "--layout", "i1x1,t1", "--radius", "auto:1",
                               "--head-dim", "8", "--layers", "1"]),
        ("degenerate radius", ["attn", "--layout", "i1x1,t1", "--radius", "auto:1",
                               "--head-dim", "8", "--layers", "2"]),
        ("degenerate radius", ["ptd", "--layout", "i1x1,t1", "--radius", "auto:1",
                               "--schemes", "hard"]),
        ("radius must be positive, got 0.0", ["ptd", "--layout", "i2x1,t1", "--radius",
                                              "auto:5e-324", "--schemes", "hard"]),
    ], ids=["attn-1-layer", "attn-2-layers", "ptd-hard", "ptd-hard-underflow"])
    def test_refused_at_every_layer_count_and_scheme_set(self, capsys, message, argv):
        assert_refused(capsys, message, *argv)

    def test_a_ptd_that_overflows_is_refused_only_where_it_is_computed(self, capsys):
        # the one rule only the computation decides: layer 1 of the `alt`
        # schedule takes no circle indices, so no PTD over 1e160 runs there
        argv = ["attn", "--layout", "i8x8,t5", "--radius", "fixed:1e160", "--head-dim", "8"]
        code, stdout, _ = run_cli(capsys, *argv, "--layers", "1")
        assert code == 0 and stdout
        assert_refused(capsys, "PTD is not finite: index distances overflow float64",
                       *argv, "--layers", "2")


segment = st.one_of(st.builds("t{}".format, st.integers(1, 6)),
                    st.builds("i{}x{}".format, st.integers(1, 5), st.integers(1, 5)))
layouts = st.lists(segment, min_size=1, max_size=3).map(",".join)
unit = st.floats(0, 1)
magnitude = st.floats(allow_nan=False, allow_infinity=False)
radii = st.one_of(st.builds("fixed:{!r}".format, magnitude),
                  st.builds("auto:{!r}".format, magnitude))
commands = st.one_of(
    st.just(["ptd", "--format", "csv"]),
    st.builds(lambda stage: ["project", "--stage", stage],
              st.sampled_from(["centered", "circle2d", "projected", "fused"])),
    st.just(["attn", "--layers", "2", "--head-dim", "8", "--sections", "2,1,1"]),
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=commands, layout=layouts, alpha=unit, beta=unit, radius=radii)
def test_exit_0_is_finite_and_every_other_exit_is_2(capsys, command, layout, alpha, beta, radius):
    argv = [*command, "--layout", layout, "--alpha", repr(alpha), "--beta", repr(beta),
            "--radius", radius]
    code, stdout, stderr = run_cli(capsys, *argv)
    if code == 0:
        assert "nan" not in stdout.lower() and "inf" not in stdout.lower(), argv
    else:
        assert (code, stdout) == (2, ""), (argv, stderr)
