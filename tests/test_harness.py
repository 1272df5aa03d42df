import json

import pytest

from circle_rope.geometry import CipConfig, FixedRadius
from circle_rope.harness import ScheduleStrategy, make_schedule, run_experiment
from circle_rope.rope import RotaryParams
from circle_rope.schemes import parse_layout
from circle_rope.spec import CircleRopeError
import workloads as W

CONFIG = CipConfig(alpha=0.5, radius=FixedRadius(10.0), beta=0.1)
PARAMS = RotaryParams(head_dim=8, sections=(2, 1, 1))


class TestMakeSchedule:
    def test_upper_half_at_36(self):
        schedule = make_schedule(36, ScheduleStrategy.UPPER_HALF_CIRCLE)
        assert schedule == (False,) * 18 + (True,) * 18

    def test_lower_half_at_36(self):
        schedule = make_schedule(36, ScheduleStrategy.LOWER_HALF_CIRCLE)
        assert schedule == (True,) * 18 + (False,) * 18

    def test_alternating_4(self):
        schedule = make_schedule(4, ScheduleStrategy.ALTERNATING)
        assert schedule == (False, True, False, True)

    def test_all_circle_single_layer(self):
        assert make_schedule(1, ScheduleStrategy.ALL_CIRCLE) == (True,)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_alternating_parity(self, n):
        schedule = make_schedule(n, ScheduleStrategy.ALTERNATING)
        assert schedule.num_layers == n
        assert schedule == tuple(layer % 2 == 0 for layer in range(1, n + 1))

    @pytest.mark.parametrize("strategy", list(ScheduleStrategy))
    def test_matches_the_benchmark_rule(self, strategy):
        # perfbench/workloads.py writes the rules down on its own; odd layer
        # counts pin where upper and lower split
        for n in range(1, 65):
            expected = [v == "circle" for v in W.schedule_variants(n, strategy.value)]
            assert list(make_schedule(n, strategy)) == expected, n

    def test_invalid_layers(self):
        with pytest.raises(CircleRopeError, match="num_layers must be >= 1, got 0"):
            make_schedule(0, ScheduleStrategy.ALL_CIRCLE)

    @pytest.mark.parametrize("strategy", ["bogus", "alt", None])
    def test_unknown_strategy(self, strategy):
        # a plain string is rejected even where it equals a member's value
        with pytest.raises(CircleRopeError, match="unknown strategy"):
            make_schedule(2, strategy)


class TestRunExperiment:
    def test_unordered_zero_spread(self):
        segments = parse_layout("i3x3,t5")
        schedule = make_schedule(3, ScheduleStrategy.ALTERNATING)
        report = run_experiment(segments, CONFIG, schedule, PARAMS, seed=7,
                                schemes=("unordered",))
        for stats in report["unordered"].values():
            assert stats["spread"] < 1e-9

    def test_hard_positive_spread(self):
        segments = parse_layout("i3x3,t5")
        schedule = make_schedule(1, ScheduleStrategy.ALL_CIRCLE)
        report = run_experiment(segments, CONFIG, schedule, PARAMS, seed=7, schemes=("hard",))
        assert report["hard"]["1"]["spread"] > 1e-6

    def test_deterministic(self):
        segments = parse_layout("t2,i2x3,t4")
        schedule = make_schedule(4, ScheduleStrategy.UPPER_HALF_CIRCLE)
        r1 = run_experiment(segments, CONFIG, schedule, PARAMS, seed=11)
        r2 = run_experiment(segments, CONFIG, schedule, PARAMS, seed=11)
        assert json.dumps(r1.as_dict(), sort_keys=True) == json.dumps(r2.as_dict(), sort_keys=True)

    def test_schedule_selects_variant_at_layer_one(self):
        segments = parse_layout("i3x3,t5")
        all_circle = make_schedule(1, ScheduleStrategy.ALL_CIRCLE)
        alternating = make_schedule(1, ScheduleStrategy.ALTERNATING)
        r_all = run_experiment(segments, CONFIG, all_circle, PARAMS, seed=3, schemes=("circle",))
        r_alt = run_experiment(segments, CONFIG, alternating, PARAMS, seed=3, schemes=("circle",))
        # alternating layer 1 uses the original (spatial) indices
        assert r_all["circle"]["1"] != r_alt["circle"]["1"]

    def test_circle_original_layers_match_spatial(self):
        segments = parse_layout("i3x3,t5")
        schedule = make_schedule(2, ScheduleStrategy.ALTERNATING)
        report = run_experiment(segments, CONFIG, schedule, PARAMS, seed=5,
                                schemes=("spatial", "circle"))
        assert report["circle"]["1"] == report["spatial"]["1"]
        assert report["circle"]["2"] != report["spatial"]["2"]

    def test_reports_share_their_layer_keys(self):
        # a caller that keeps many reports (the benchmark keeps each one)
        # holds one key string per layer, not one per report
        schedule = make_schedule(12, ScheduleStrategy.ALTERNATING)
        r1 = run_experiment(parse_layout("i3x3,t5"), CONFIG, schedule, PARAMS, seed=1)
        r2 = run_experiment(parse_layout("t2,i2x3,t4"), CONFIG, schedule, PARAMS, seed=2)
        for scheme in r1:
            pairs = list(zip(r1[scheme], r2[scheme], strict=True))
            assert len(pairs) == 12
            assert all(k1 is k2 for k1, k2 in pairs)

    def test_missing_modality_rejected(self):
        schedule = make_schedule(1, ScheduleStrategy.ALL_CIRCLE)
        for layout in ("t5", "i3x3", "i2x2,i1x3"):
            with pytest.raises(CircleRopeError, match="both text and image"):
                run_experiment(parse_layout(layout), CONFIG, schedule, PARAMS, seed=0)

    def test_report_shape(self):
        segments = parse_layout("i2x2,t3")
        schedule = make_schedule(2, ScheduleStrategy.ALTERNATING)
        report = run_experiment(segments, CONFIG, schedule, PARAMS, seed=1)
        data = report.as_dict()
        assert set(data) == {"hard", "unordered", "spatial", "circle"}
        for layers in data.values():
            assert set(layers) == {"1", "2"}
            for stats in layers.values():
                assert set(stats) == {"mean", "std", "spread", "ptd"}
                assert stats["spread"] >= 0


def test_benchmark_aliases_are_the_data_itself():
    # the benchmark reads `num_layers` and `as_dict()`; a schedule is the
    # tuple of per-layer flags and a report is the dict it prints
    segments = parse_layout("i2x2,t3")
    for strategy in ScheduleStrategy:
        schedule = make_schedule(5, strategy)
        assert schedule == tuple(v == "circle" for v in W.schedule_variants(5, strategy.value))
        assert schedule.num_layers == len(schedule)
        report = run_experiment(segments, CONFIG, schedule, PARAMS, seed=1)
        assert isinstance(report, dict) and report.as_dict() is report
