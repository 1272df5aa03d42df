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
        assert schedule.circle == (False,) * 18 + (True,) * 18

    def test_lower_half_at_36(self):
        schedule = make_schedule(36, ScheduleStrategy.LOWER_HALF_CIRCLE)
        assert schedule.circle == (True,) * 18 + (False,) * 18

    def test_alternating_4(self):
        schedule = make_schedule(4, ScheduleStrategy.ALTERNATING)
        assert schedule.circle == (False, True, False, True)

    def test_all_circle_single_layer(self):
        assert make_schedule(1, ScheduleStrategy.ALL_CIRCLE).circle == (True,)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_alternating_parity(self, n):
        schedule = make_schedule(n, ScheduleStrategy.ALTERNATING)
        assert schedule.num_layers == n
        assert schedule.circle == tuple(layer % 2 == 0 for layer in range(1, n + 1))

    @pytest.mark.parametrize("strategy", list(ScheduleStrategy))
    def test_matches_the_benchmark_rule(self, strategy):
        # perfbench/workloads.py writes the rules down on its own; odd layer
        # counts pin where upper and lower split
        for n in range(1, 65):
            expected = [v == "circle" for v in W.schedule_variants(n, strategy.value)]
            assert list(make_schedule(n, strategy).circle) == expected, n

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
        for stats in report.stats["unordered"].values():
            assert stats["spread"] < 1e-9

    def test_hard_positive_spread(self):
        segments = parse_layout("i3x3,t5")
        schedule = make_schedule(1, ScheduleStrategy.ALL_CIRCLE)
        report = run_experiment(segments, CONFIG, schedule, PARAMS, seed=7, schemes=("hard",))
        assert report.stats["hard"][1]["spread"] > 1e-6

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
        assert r_all.stats["circle"][1] != r_alt.stats["circle"][1]

    def test_circle_original_layers_match_spatial(self):
        segments = parse_layout("i3x3,t5")
        schedule = make_schedule(2, ScheduleStrategy.ALTERNATING)
        report = run_experiment(segments, CONFIG, schedule, PARAMS, seed=5,
                                schemes=("spatial", "circle"))
        assert report.stats["circle"][1] == report.stats["spatial"][1]
        assert report.stats["circle"][2] != report.stats["spatial"][2]

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
