"""Golden exit codes and stdout digests of every CLI call in the benchmark's
catalogue, perfbench/workloads.py: `cli_cases()`, whose digests the benchmark
records in perfbench/cli_expected.json (exit code, stdout sha256, stdout
bytes), and `cli_probes()`, which must exit 2 with nothing on stdout. This
test keeps no list of calls of its own and only reads that file.

The `attn` runs change in their last digit if a rotated key array is not
C-contiguous, because the logit matmul then sums in another order. The `ptd`
runs change if the block-wise PTD sum adds in another order than numpy's
pairwise sum over the whole table; `ptd-csv-large` (64 x 1024 cells) spans
more than one block. The `project` runs pin every stage of the projection
pipeline in every output format, and the config cases pin how a config file
and a flag combine.

The last digits of `attn` also depend on the OpenBLAS kernel that runs the
logit matmul, which OpenBLAS picks for the CPU (or as OPENBLAS_CORETYPE
forces). So the digests of the `attn` cases that succeed are keyed by the
kernel's core name: the file's are the SkylakeX ones, and ATTN_DIGESTS holds
those of the other cores where they differ. A core name outside CORES fails.
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
import workloads

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

EXPECTED = json.loads((PERFBENCH / "cli_expected.json").read_text())
CASES = {case["id"]: case for case in workloads.cli_cases() + workloads.cli_probes()}
PROBES = {case["id"] for case in workloads.cli_probes()}
ATTN_CASES = [case_id for case_id, case in CASES.items()
              if case["argv"][0] == "attn" and EXPECTED[case_id][0] == 0]

CORES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Katmai")
# Case id, core, then exit code, stdout sha256 and stdout bytes, where they
# differ from the file's SkylakeX digest. Recorded under OPENBLAS_CORETYPE on
# an AVX-512 Intel Xeon, numpy 2.4.6 with scipy-openblas 0.3.31. Forced
# Prescott or Core2 reads back as Katmai, Zen as Haswell, Cooperlake and
# SapphireRapids as SkylakeX.
ATTN_DIGESTS = {(case_id, core): [int(code), sha, int(size)]
                for case_id, core, code, sha, size in map(str.split, """
readme-attn   Haswell     0 2c253103e7ef6962da3f6a269b672d4c23ba845267ca6d2b0758e359c07cb72d 2523
readme-attn   Sandybridge 0 a8b9ed1df27d041d982f5831046955139a2f7e552d007d56ab8adbee68bf5766 2441
readme-attn   Nehalem     0 08325dc48b6fbfc863e645347b5bebb6ec25b806b9541f10dc0008c32ec56fbf 2515
readme-attn   Katmai      0 8805445b4a52764de15bb066af714a851f915533073f799dd91f362f4716cad4 2439
accept-attn   Haswell     0 9ef69ae54cae648c1374156c22932e36a3001cc2ab410bad7f2b746eef0f3e30 2521
accept-attn   Sandybridge 0 328d2b66c26511680a2a35fb0f4fc9fcf54e440e4b9cef9296ba1b16222b4925 2449
accept-attn   Nehalem     0 756e9f126d201a766dcca97c9805e8a8563796994f817ac6da7c317fb2fb7fcb 2527
accept-attn   Katmai      0 2318f7ca5ac60a0dd54db9563412ce5dad631ebd8291b646eb2f9b08509f16b6 2523
attn-hd128    Haswell     0 0345db6d4ac37fc766e066f315829d571e1ea1ba4dcccc83552abc2ed3084add 7067
attn-hd128    Sandybridge 0 23da67946da938d69ec159537780357ab74c054171d7536d34a1184bee931576 7091
attn-hd128    Nehalem     0 23da67946da938d69ec159537780357ab74c054171d7536d34a1184bee931576 7091
attn-hd128    Katmai      0 23da67946da938d69ec159537780357ab74c054171d7536d34a1184bee931576 7091
attn-env-seed Haswell     0 1fb769c3d383eccd22024e949fc2aa0d2def9535e438b17f5adbd4beafe079f5 2544
attn-env-seed Sandybridge 0 557670618d72edcbe695f10eb0e36d39ed60567d262ff7d6b51d7180c777a47f 2552
attn-env-seed Nehalem     0 557670618d72edcbe695f10eb0e36d39ed60567d262ff7d6b51d7180c777a47f 2552
attn-env-seed Katmai      0 557670618d72edcbe695f10eb0e36d39ed60567d262ff7d6b51d7180c777a47f 2552
attn-all      Sandybridge 0 6347e2b69c1f5c434d2be979c8ad67872b6eed63a44b7b62397005af69ed1189 3521
attn-all      Nehalem     0 6347e2b69c1f5c434d2be979c8ad67872b6eed63a44b7b62397005af69ed1189 3521
attn-all      Katmai      0 6347e2b69c1f5c434d2be979c8ad67872b6eed63a44b7b62397005af69ed1189 3521
attn-upper    Sandybridge 0 5878fc7c0c070952a1de7eb91f42b15203bdca47ad48e6fa75a50bdcb6fb0969 3521
attn-upper    Nehalem     0 5878fc7c0c070952a1de7eb91f42b15203bdca47ad48e6fa75a50bdcb6fb0969 3521
attn-upper    Katmai      0 5878fc7c0c070952a1de7eb91f42b15203bdca47ad48e6fa75a50bdcb6fb0969 3521
attn-lower    Sandybridge 0 6fd7cc6ccb9b72d6192de74ad6160b2547f347c2328282adb843e13d8a9df15a 3521
attn-lower    Nehalem     0 6fd7cc6ccb9b72d6192de74ad6160b2547f347c2328282adb843e13d8a9df15a 3521
attn-lower    Katmai      0 6fd7cc6ccb9b72d6192de74ad6160b2547f347c2328282adb843e13d8a9df15a 3521
attn-alt      Sandybridge 0 921bf6ded2c4d3619a52dcba3df078e013329f323195e06e88eba0aa69977f82 3521
attn-alt      Nehalem     0 921bf6ded2c4d3619a52dcba3df078e013329f323195e06e88eba0aa69977f82 3521
attn-alt      Katmai      0 921bf6ded2c4d3619a52dcba3df078e013329f323195e06e88eba0aa69977f82 3521
config-attn   Sandybridge 0 d75a41845d91414fc48dfbec81f7f98eada4eac1c862df1283e100ca78b8adbf 3530
config-attn   Nehalem     0 b8a7e23868030576e38836aeab0e9db182e730daf9942320b4d9a1fa3fe0a260 3650
config-attn   Katmai      0 6744f8a6e7c1a06b80d96d6f9c5afb42863ca01db79018f7d03f5fa778e76713 3647
""".strip().splitlines())}


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
    if case_id in PROBES:
        return [2, hashlib.sha256(b"").hexdigest(), 0]
    if case_id not in ATTN_CASES:
        return EXPECTED[case_id]
    core = openblas_core()
    assert core in CORES, f"no attn digests recorded for OpenBLAS core {core!r}"
    return ATTN_DIGESTS.get((case_id, core), EXPECTED[case_id])


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stdout_digest(case_id, tmp_path, monkeypatch):
    case = CASES[case_id]
    workloads.write_cli_configs([case], str(tmp_path))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CIRCLE_ROPE_SEED", raising=False)
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    out = io.StringIO()
    code = main(workloads.cli_argv(case, str(tmp_path)), out=out)
    data = out.getvalue().encode()
    assert [code, hashlib.sha256(data).hexdigest(), len(data)] == expected_digest(case_id), (
        f"checked against OpenBLAS core {openblas_core()!r}")


# Each forced core and the name it reads back as. Cores older than the CPU
# can always be forced; newer ones fall back.
@pytest.mark.parametrize("coretype, core", [("Prescott", "Katmai"), ("Nehalem", "Nehalem"),
                                            ("Sandybridge", "Sandybridge"),
                                            ("Haswell", "Haswell")])
def test_attn_digests_under_forced_core(coretype, core):
    # the child prints the core it runs on, then reruns the golden attn cases;
    # it imports this module before pytest loads the conftest, so it puts the
    # tests and perfbench directories on its path itself
    script = ("import sys, pytest; sys.path[:0] = sys.argv[1:3]; import test_golden; "
              "print(test_golden.openblas_core(), flush=True); "
              "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[3:]]))")
    here = Path(__file__).resolve()
    node_ids = [f"{here}::test_stdout_digest[{case}]" for case in ATTN_CASES]
    proc = subprocess.run([sys.executable, "-c", script, str(here.parent), str(PERFBENCH),
                           *node_ids],
                          capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_CORETYPE": coretype}, timeout=120)
    assert proc.stdout.split("\n", 1)[0] == core, proc.stdout[-2000:]
    assert proc.returncode == 0, proc.stdout[-2000:]
