"""Golden stdout digests of `attn`, `ptd` and `project` runs.

The digests are the ones the benchmark records in perfbench/cli_expected.json
(exit code, stdout sha256, stdout bytes); this test only reads that file.
The `attn` runs change in their last digit if a rotated key array is not
C-contiguous, because the logit matmul then sums in another order. The `ptd`
runs change if the block-wise PTD sum adds in another order than numpy's
pairwise sum over the whole table; `ptd-csv-large` (64 x 1024 cells) spans
more than one block. The `project` runs pin every stage of the projection
pipeline in every output format, and the config cases pin how a config file
and a flag combine.

The last digits of `attn` also depend on the OpenBLAS kernel that runs the
logit matmul, which OpenBLAS picks for the CPU (or as OPENBLAS_CORETYPE
forces). So the attn digests are keyed by the kernel's core name: the file's
are the SkylakeX ones, and ATTN_DIGESTS holds the others. A core name with no
entry fails.
"""

import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from circle_rope.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "cli_expected.json"

# Recorded under OPENBLAS_CORETYPE on an AVX-512 Intel Xeon, numpy 2.4.6 with
# scipy-openblas 0.3.31. Forced Prescott or Core2 reads back as Katmai, Zen
# as Haswell, Cooperlake and SapphireRapids as SkylakeX.
ATTN_DIGESTS = {
    "Katmai": {
        "attn-hd128": [0, "23da67946da938d69ec159537780357ab74c054171d7536d34a1184bee931576", 7091],
        "attn-env-seed": [0, "557670618d72edcbe695f10eb0e36d39ed60567d262ff7d6b51d7180c777a47f",
                          2552],
        "config-attn": [0, "6744f8a6e7c1a06b80d96d6f9c5afb42863ca01db79018f7d03f5fa778e76713",
                        3647],
    },
    "Nehalem": {
        "attn-hd128": [0, "23da67946da938d69ec159537780357ab74c054171d7536d34a1184bee931576", 7091],
        "attn-env-seed": [0, "557670618d72edcbe695f10eb0e36d39ed60567d262ff7d6b51d7180c777a47f",
                          2552],
        "config-attn": [0, "b8a7e23868030576e38836aeab0e9db182e730daf9942320b4d9a1fa3fe0a260",
                        3650],
    },
    "Sandybridge": {
        "attn-hd128": [0, "23da67946da938d69ec159537780357ab74c054171d7536d34a1184bee931576", 7091],
        "attn-env-seed": [0, "557670618d72edcbe695f10eb0e36d39ed60567d262ff7d6b51d7180c777a47f",
                          2552],
        "config-attn": [0, "d75a41845d91414fc48dfbec81f7f98eada4eac1c862df1283e100ca78b8adbf",
                        3530],
    },
    "Haswell": {
        "attn-hd128": [0, "0345db6d4ac37fc766e066f315829d571e1ea1ba4dcccc83552abc2ed3084add", 7067],
        "attn-env-seed": [0, "1fb769c3d383eccd22024e949fc2aa0d2def9535e438b17f5adbd4beafe079f5",
                          2544],
        "config-attn": [0, "3d5fb5fe69c54a781962f44fc5729679e4898a4a5941f0599b02dc6c4a9ab897",
                        3518],
    },
}
ATTN_CASES = ("attn-hd128", "attn-env-seed", "config-attn")


def openblas_core() -> str | None:
    """The core name of the OpenBLAS kernel numpy runs on, read from the
    scipy-openblas library in numpy.libs; None if there is none."""
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def expected_digest(case_id: str) -> list:
    recorded = json.loads(EXPECTED.read_text())[case_id]
    if case_id not in ATTN_CASES:
        return recorded
    core = openblas_core()
    by_core = {"SkylakeX": recorded, **{name: digests[case_id]
                                        for name, digests in ATTN_DIGESTS.items()}}
    assert core in by_core, f"no attn digests recorded for OpenBLAS core {core!r}"
    return by_core[core]


CASES = {
    "attn-hd128": (["attn", "--layout", "i8x8,t16", "--layers", "12", "--head-dim", "128",
                    "--sections", "16,24,24", "--seed", "5"], None, {}),
    "attn-env-seed": (["attn", "--layout", "t4,i6x6,t4", "--layers", "8", "--head-dim", "32",
                       "--schemes", "circle,spatial"], None, {"CIRCLE_ROPE_SEED": "11"}),
    "config-attn": (["attn", "--layout", "i5x5,t6"],
                    "layers = 6\nschedule = upper\nhead-dim = 16\nsections = 4,2,2\nseed = 9\n",
                    {}),
    "ptd-table": (["ptd", "--layout", "t8,i8x8,t8"], None, {}),
    "ptd-json": (["ptd", "--layout", "i16x16,t32,i8x8", "--format", "json"], None, {}),
    "ptd-csv-large": (["ptd", "--layout", "i32x32,t64", "--format", "csv"], None, {}),
    "ptd-auto-radius": (["ptd", "--layout", "i12x9,t20", "--radius", "auto:1.5"], None, {}),
    "ptd-alpha0-beta0": (["ptd", "--layout", "i6x6,t6", "--alpha", "0", "--beta", "0"],
                         None, {}),
    "ptd-one-scheme": (["ptd", "--layout", "t3,i10x5,t7", "--scheme", "circle"], None, {}),
    "config-ptd-json": (["ptd", "--layout", "i8x8,t8"],
                        "format = json\nradius = auto:1.5\nschemes = hard,circle\n", {}),
    "readme-project": (["project", "--layout", "i3x3,t1", "--stage", "projected", "--alpha",
                        "0.5", "--radius", "10", "--format", "csv"], None, {}),
    "accept-project": (["project", "--layout", "i4x3,t2", "--stage", "projected",
                        "--format", "json"], None, {}),
    "project-auto-alpha0": (["project", "--layout", "i8x8,t2", "--stage", "circle2d",
                             "--radius", "auto:2", "--alpha", "0"], None, {}),
    "project-alpha1-beta0": (["project", "--layout", "i8x6,t2", "--stage", "fused", "--alpha",
                              "1", "--beta", "0", "--format", "table"], None, {}),
    "project-two-images": (["project", "--layout", "i5x4,t3,i16x12", "--stage", "fused",
                            "--radius", "fixed:4", "--format", "json"], None, {}),
    **{f"project-{layout}-{stage}-{fmt}": (["project", "--layout", layout, "--stage", stage,
                                            "--format", fmt], None, {})
       for layout in ("i3x3,t1", "i64x64,t8")
       for stage in ("centered", "circle2d", "projected", "fused")
       for fmt in ("csv", "json", "table")},
    "config-beta1": (["ptd", "--layout", "i3x3,t5", "--format", "csv"],
                     "beta = 1.0\nalpha = 0.25  # flags win over this\n", {}),
    "config-flag-wins": (["ptd", "--layout", "i3x3,t5", "--beta", "0", "--format", "csv"],
                         "beta = 1.0\nalpha = 0.25  # flags win over this\n", {}),
    "config-project": (["project", "--layout", "i6x5,t2", "--stage", "fused"],
                       "alpha=0\nbeta=0.5\nformat=table\nradius=fixed:4\n", {}),
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stdout_digest(case_id, tmp_path, monkeypatch):
    argv, config, env = CASES[case_id]
    monkeypatch.delenv("CIRCLE_ROPE_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        cfg = tmp_path / f"{case_id}.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    out = io.StringIO()
    code = main(argv, out=out)
    data = out.getvalue().encode()
    assert [code, hashlib.sha256(data).hexdigest(), len(data)] == expected_digest(case_id)


# Each forced core and the name it reads back as. Cores older than the CPU
# can always be forced; newer ones fall back.
@pytest.mark.parametrize("coretype, core", [("Prescott", "Katmai"), ("Nehalem", "Nehalem"),
                                            ("Sandybridge", "Sandybridge"),
                                            ("Haswell", "Haswell")])
def test_attn_digests_under_forced_core(coretype, core):
    # the child prints the core it runs on, then reruns the golden attn cases
    script = ("import sys, pytest; sys.path.insert(0, sys.argv[1]); import test_golden; "
              "print(test_golden.openblas_core(), flush=True); "
              "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[2:]]))")
    here = Path(__file__).resolve()
    node_ids = [f"{here}::test_stdout_digest[{case}]" for case in ATTN_CASES]
    proc = subprocess.run([sys.executable, "-c", script, str(here.parent), *node_ids],
                          capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_CORETYPE": coretype}, timeout=120)
    assert proc.stdout.split("\n", 1)[0] == core, proc.stdout[-2000:]
    assert proc.returncode == 0, proc.stdout[-2000:]
