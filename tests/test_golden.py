"""Golden trajectories: the exact output bytes of a few fixed commands.

Each sweep case runs ``evogate sweep`` and pins the sha256 of ``runs.csv``
and ``stats.csv`` (and ``alpha_phi.csv`` for the general task); the command
cases pin every file that ``run`` and ``reproduce`` write.  Any change to
the order or number of draws on the four random streams, to the breeding
step, to the arithmetic of evaluation or to the output format changes these
digests.  Re-pin them only for a change that is meant to alter results, and
say so where the change is recorded.

A few cases rerun in a subprocess on OpenBLAS's Haswell kernels: the d = 2
ones must keep their digests on another BLAS kernel, and the d = 3 case,
whose bytes depend on the LAPACK kernel, is pinned there.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import evogate
from evogate.cli import main as cli_main
from evogate.tasks import save_task
from test_cli import _qutrit_task

COMMON = ["sweep", "--task", "deutsch", "--depth", "15", "--threshold", "1e-4",
          "--workers", "1"]

CASES = {
    # zero mutation, no elitism: selection and crossover streams only
    "npop10-plain": (
        ["--npop", "10", "--seeds", "6", "--base-seed", "3"],
        "12eb032de93318da68b27d2522bb0bf51986248ae1645a38b1744ac3d1ee9313",
        "8728bffb9ef1dc64aa50b34aeea97aaa79936dc82f9118c9db87ec9928e4c529",
    ),
    # odd bred count (11 - 2 = 9): the last pair's second child is discarded
    # after its mutation draws; rate 0.05 flips several genes per child
    "npop11-mutation-elitism": (
        ["--npop", "11", "--mutation", "0.05", "--elitism", "2", "--seeds", "4",
         "--base-seed", "7", "--max-gen", "40"],
        "d0edb33516e2a21419d235d9cf8a06702d89eafb2ae7d3f33c2f1de51e46ee5f",
        "095045b6df5b931d306c060f0cf52695abd3198cd07c4af434aa3b5c0d00b21d",
    ),
    # two individuals: the second parent is redrawn 5/9 of the time
    "npop2": (
        ["--npop", "2", "--seeds", "8", "--base-seed", "1"],
        "d566600d19023967e64a04b5970d5241fae10eed1296e2967237878f5e0db3fe",
        "954ff05440652a075cd06705dd04918af4b668fb2ab68493ffd36889508d2064",
    ),
    # one bred slot: one pair per generation, its second child discarded
    "npop6-elitism5": (
        ["--npop", "6", "--elitism", "5", "--seeds", "6", "--base-seed", "5",
         "--max-gen", "60"],
        "1a0d0c1a70370803cdbdcb71bf5c5c5ee54d34594a9f787709885dcc849ddf6b",
        "d8792e22b10c9c53359893daef952a9d428add0cd31cfaf94fc9a2914d37e48a",
    ),
    # the shortest chromosome: one gene, one cut pair, values +-R/2
    "depth1-mutation-elitism": (
        ["--depth", "1", "--npop", "10", "--mutation", "0.05", "--elitism", "1",
         "--seeds", "6", "--base-seed", "11", "--max-gen", "40"],
        "b6546fd8b23e319112b1851d4182f9956751ee52293933b3660ba613e5d91538",
        "8cfcf9d5aa76249dae22a433e5e1b7c07439c1be04c8d86054af2735e7aa84bb",
    ),
    # the deepest exact grid: codes up to 2**52 - 1, 1378 cut pairs
    "depth52-mutation-elitism": (
        ["--depth", "52", "--npop", "12", "--mutation", "0.01", "--elitism", "1",
         "--seeds", "4", "--base-seed", "13", "--max-gen", "60"],
        "177e51cd90d847f5b36c9666d680eb92d67929aeb10c6ebf85a2ef614b531bde",
        "dca145153a36c8694f9d6a515882b57ce6ca0540a03fdaa804d2ee9f71410350",
    ),
    # the paper's scale with an odd bred count (101 - 2 = 99): 50 pairs, the
    # last kid b discarded after its mutation draws
    "npop101-mutation-elitism": (
        ["--npop", "101", "--mutation", "1e-3", "--elitism", "2", "--seeds", "3",
         "--base-seed", "17", "--max-gen", "80"],
        "324a660dc1b202c4ed0910ec09cd4fa796f1be944c01678c65547a86a0820427",
        "f50616df9ac5b0b4100afd1a1a250759fdd2f69f609c59b5f2f5d31cdb9e3954",
    ),
    # hold-last stats (ensemble_stats with a horizon): runs stopping at
    # generations 36, 39, 48 and 60 are padded or cut to 40 rows, every row n = 6
    "npop11-horizon40": (
        ["--npop", "11", "--mutation", "0.005", "--elitism", "1", "--seeds", "6",
         "--base-seed", "3", "--max-gen", "60", "--horizon", "40"],
        "c0bdf334e68041454be8f053a9b54cf14ee21695b64e29186e61399cb3acc8d6",
        "c23737b53604b5302b542af5e9bd357fa414cd6214dc2ff664b6bdcda50f32f8",
    ),
}


def _c(re, im):
    return [re, im]


# A d=2 task whose oracles and targets have general complex entries, so that
# a change in the order of the complex arithmetic shows in the digests; the
# +-1 diagonal Deutsch oracles and |0>/|1> targets would hide it.  Trainable,
# oracle, trainable, oracle: the oracle slot repeats and three pairs score.
GENERAL_TASK = {
    "name": "general-t-o-t-o",
    "dim": 2,
    "slot_order": "rightmost-acts-first",
    "slots": [{"kind": "trainable", "index": 1}, {"kind": "oracle", "family": "oracle"},
              {"kind": "trainable", "index": 2}, {"kind": "oracle", "family": "oracle"}],
    "initial_state": [_c(0.00098299300897526968, 0.47551412079742961),
                      _c(-0.49223866270023164, 0.72909975558223794)],
    "pairs": [
        ["a", [_c(0.69892291522693228, -0.49168787776031619),
               _c(-0.48803099478732215, -0.17769506904002622)]],
        ["b", [_c(0.85919338840827819, -0.33530548844097929),
               _c(-0.2401698636322552, 0.30277943678480235)]],
        ["c", [_c(-0.030747374322386601, -0.99765842676015104),
               _c(0.053559149449459609, -0.029388433047540394)]],
    ],
    "oracle_families": {"oracle": {
        "a": [[_c(-0.062647097163337537, 0.68270516017674487),
               _c(-0.25997841585831022, 0.6800001682153145)],
              [_c(0.6946147354187453, -0.21794351292066258),
               _c(-0.68525740019669079, 0.020815618910326305)]],
        "b": [[_c(-0.85476005611597516, 0.48585713251436274),
               _c(-0.039545601363662558, -0.17822524699470002)],
              [_c(0.1462122139989763, -0.10931642937387359),
               _c(-0.33110367583506867, -0.92576577091344758)]],
        "c": [[_c(0.54313603340690164, 0.56593007067110412),
               _c(-0.45649537539432516, 0.41992663236428607)],
              [_c(0.37892901146530283, 0.49105927197757349),
               _c(0.63099666918980568, -0.465957937099643)]],
    }},
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sweep(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv + ["--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_sweep(name, tmp_path):
    flags, runs_digest, stats_digest = CASES[name]
    _sweep(COMMON + flags, tmp_path)
    assert _sha256(tmp_path / "runs.csv") == runs_digest
    assert _sha256(tmp_path / "stats.csv") == stats_digest


# the general task's sweep, run from the directory that holds task.json:
# the task path is echoed into every file's metadata, so it stays relative
GENERAL_ARGV = ["sweep", "--task", "task.json", "--depth", "15", "--threshold", "1e-4",
                "--npop", "12", "--mutation", "0.02", "--elitism", "1", "--seeds", "6",
                "--base-seed", "2", "--max-gen", "60"]
GENERAL_DIGESTS = {
    "alpha_phi.csv": "38cf758df79f427e0c58e807486c16f4b2fbe06737230ee526c026656cee9019",
    "runs.csv": "e913947fcbe9dc8c3b00e5bbf7ece10120c1b3f73ff4d24c8cc00cb033c2c37e",
    "stats.csv": "3c853e9bfafef233319220f772947a4749856b4049a645f01424f70019759e89",
}


def _digests(out) -> dict:
    return {p.name: _sha256(p) for p in Path(out).iterdir()}


def test_golden_sweep_general_task(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "task.json").write_text(json.dumps(GENERAL_TASK), encoding="utf-8")
    _sweep(GENERAL_ARGV + ["--workers", "1"], tmp_path / "out")
    assert _digests(tmp_path / "out") == GENERAL_DIGESTS


# every file a command writes, at default settings unless a flag says
# otherwise; name -> (argv, exit code, {file name: sha256})
COMMAND_CASES = {
    # one search: the run table with its summary section, the genome file
    # and the analysis sidecar
    "run-seed7": (
        ["run", "--base-seed", "7"], 0, {
            "analysis_7.json": "6371c6769b101514f0420b0aef21ab61022e46e984cfe99ed50a95a06ca7e64e",
            "genome_7.json": "678c3874d591156807bf57c87f8dfa6cbc13431402ff24dd79f69d1e6c2b039f",
            "run_7.csv": "4a80e518deec01780e7d6f2f5370240bc404e48f3c3516c626146df479cd9242",
        }),
    # three populations with hold-last stats at the default horizon 100
    "fig5-seeds6": (
        ["reproduce", "fig5", "--seeds", "6"], 0, {
            "fig5_npop100_alpha_phi.csv":
                "14fdc0e18cda8026eb35e2cf2b1e64d5380d8ef234c99e0e0b938f220d2635df",
            "fig5_npop100_runs.csv":
                "af8cae2f01b7ccd506d55fe3e7fad04e1ab1609d771600ab02b8e4b45a5fa104",
            "fig5_npop100_stats.csv":
                "15d5bf173af697848fecc32b07e98cd10e56484c05621d490fad2ec69f259860",
            "fig5_npop10_alpha_phi.csv":
                "81159a926d9d9b706b9e2a1c272b189cc6b93d8e9d42d8b8906be739bf183058",
            "fig5_npop10_runs.csv":
                "a5c4e4a3b0eed381db1f101a1a1aaa85f65c9e7e65bc25b9848ce0f0b9140e2c",
            "fig5_npop10_stats.csv":
                "16dd997a5ded19f5b4eb16b3e46de4d28ecf6e4a1138ef2d7f4fb94636e29065",
            "fig5_npop50_alpha_phi.csv":
                "7c043107693c0aacabf868a915faab7f260a1f79d4df49526d0916c618d57d4c",
            "fig5_npop50_runs.csv":
                "1721fdeaa99f4de8954033ac9760e5e05101edcdf948858d1f073fe6af9439bf",
            "fig5_npop50_stats.csv":
                "8c5520de44ec9014eaab985bf6b5ce80beecc6e7d2e4906a327e8e4bc8d87ba4",
        }),
    # drop-out stats (horizon 0) and a fit; the fit is flagged, so exit 2
    "fig7-npop30-seeds40": (
        ["reproduce", "fig7", "--npop", "30", "--seeds", "40"], 2, {
            "fig7_npop30_alpha_phi.csv":
                "54d99d3f9a7da8ca5543e440c98f18d6c41f7342aa6f7041074fd397be3ac2de",
            "fig7_npop30_fit.csv":
                "2671168cfb25b3c04117917cbd6fde5ea1c1fa874c048f21f4dd889e521ef236",
            "fig7_npop30_runs.csv":
                "c8995aa51bcdf46b8e99e7b5390f202faf52512cd1056b768d0e24def9483790",
            "fig7_npop30_stats.csv":
                "009d774d793f7145a84fa72430bd7d0e28a24c0c6906a650b2d652587d1d767f",
        }),
}


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_golden_command(name, tmp_path):
    argv, code, digests = COMMAND_CASES[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv + ["--workers", "1", "--out", str(tmp_path)]) == code
    assert _digests(tmp_path) == digests


def _run_under_haswell(argv, cwd, code) -> dict:
    """Run ``evogate argv`` in a fresh interpreter on OpenBLAS's Haswell
    kernels, one BLAS thread, and return the digests of the files it writes
    to ``cwd/out``.

    OpenBLAS picks its kernels by core type, so outputs that went through
    BLAS or LAPACK would differ here from a run on the default kernel.
    Skips where the Haswell kernels cannot run: off x86-64, or on a CPU
    without AVX2.
    """
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            avx2 = "avx2" in fh.read().split()
    except OSError:
        avx2 = False
    if platform.machine().lower() not in ("x86_64", "amd64") or not avx2:
        pytest.skip("OpenBLAS's Haswell kernels need an x86-64 CPU with AVX2")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(evogate.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "evogate", *argv, "--workers", "1",
                           "--out", "out"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    return _digests(Path(cwd) / "out")


# d = 2 outputs other than fit.csv go through no BLAS product, so they keep
# their pinned bytes on another BLAS kernel; fit.csv does not yet (polyfit's
# lstsq, solve and inv), so the fig7 case is left out
@pytest.mark.parametrize("name", ["run-seed7", "fig5-seeds6", "general-task"])
def test_golden_bytes_do_not_depend_on_the_blas_kernel(name, tmp_path):
    if name == "general-task":
        (tmp_path / "task.json").write_text(json.dumps(GENERAL_TASK), encoding="utf-8")
        argv, code, digests = GENERAL_ARGV, 0, GENERAL_DIGESTS
    else:
        argv, code, digests = COMMAND_CASES[name]
    assert _run_under_haswell(argv, tmp_path, code) == digests


# A d = 3 search builds its unitaries through LAPACK's eigh, whose bits
# depend on the OpenBLAS kernel, so these digests hold on the Haswell kernels
# only.  The run, stopped by its generation cap (exit 2), also covers the
# analysis file of a d != 2 task: no rotations, prepared state or decision.
# name -> (argv after --task q.json, exit code, {file name: sha256})
QUTRIT_CASES = {
    "sweep": (
        ["--npop", "30", "--depth", "12", "--seeds", "20", "--max-gen", "40"], 0, {
            "runs.csv": "cec836ab3d640d71e805132410c2183cfbda1263974db6580ef47178e9f837e5",
            "stats.csv": "de00c11b4b98084f1545b732ad82167b7c7f7007c68e64a580c3454e4aad699c",
        }),
    "run": (
        ["--npop", "20", "--depth", "12", "--max-gen", "30", "--base-seed", "4"], 2, {
            "analysis_4.json": "5be1335740daa79c5ccde2c092f7344d01d540d1a361dfce4ebbd1454bccdb70",
            "genome_4.json": "db3b9ff5815529603b0182680406c152a28c234e4344d81e91f6c145321ff8b1",
            "run_4.csv": "b455f16e549f83477d3fbb3aeba5a025f6604986eb0fc82532f91d43ad39cf34",
        }),
}


@pytest.mark.parametrize("name", sorted(QUTRIT_CASES))
def test_golden_qutrit_on_haswell_kernels(name, tmp_path):
    save_task(_qutrit_task(), tmp_path / "q.json")
    argv, code, digests = QUTRIT_CASES[name]
    assert _run_under_haswell([name, "--task", "q.json", *argv], tmp_path, code) == digests
