"""tools/bench.py's summary, file form and printout, on made-up numbers; a CI
step runs the tool itself for one short round."""

import json

import pytest

import bench


def made_up(seeds: list[int]) -> dict:
    """A BENCH file of the form `bench.bench` writes, without running anything."""
    workloads, units = bench.declared()
    run = dict(zip(bench.RUN_KEYS[2:], (10, 0, 200, 20, 1, [0.5, 0.4, 0.3], [0.6, 0.4, 0.3])))
    return {"schema": bench.SCHEMA,
            "metadata": {key: None for key in ("git_sha", "src_sha256", "python", "numpy",
                                               "blas", "nproc", "seconds")},
            "machine": {"cpu_model": None, "openblas_core": None},
            "seeds": seeds,
            "workloads": {w: {"metrics": {name: {"unit": unit, **bench.summary(
                                                     [float(s) for s in seeds])}
                                          for name, unit in units.items()},
                              "runs": [{"workload": w, "seed": s, **run} for s in seeds]}
                          for w in workloads}}


def test_summary_is_the_median_and_inclusive_iqr():
    assert bench.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "values": [5.0, 1.0, 3.0, 2.0, 4.0], "median": 3.0, "iqr": 2.0}
    assert bench.summary([7.0]) == {"values": [7.0], "median": 7.0, "iqr": 0.0}


def test_printout_passes_the_check_and_a_missing_line_fails_it(tmp_path):
    path = tmp_path / "bench.json"
    data = made_up([1, 2, 3])
    path.write_text(json.dumps(data))
    printed = bench.printout(data, path)
    bench.check(path, printed)
    first = printed.splitlines()[0]
    with pytest.raises(ValueError, match="printout: no line for"):
        bench.check(path, printed.replace(first + "\n", ""))


@pytest.mark.parametrize("spoil", [
    lambda data: data.update(schema=0),
    lambda data: data["seeds"].append(4),
    lambda data: data["workloads"].popitem(),
    lambda data: next(iter(data["workloads"].values()))["runs"].pop(),
    lambda data: next(iter(next(iter(data["workloads"].values()))["metrics"].values())).update(
        median=-1.0),
], ids=["schema", "seeds", "workload", "run", "median"])
def test_validate_refuses_a_spoilt_file(spoil):
    data = made_up([1, 2, 3])
    bench.validate(data)
    spoil(data)
    with pytest.raises(ValueError, match="BENCH file"):
        bench.validate(data)
