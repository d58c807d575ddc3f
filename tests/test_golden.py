"""Golden trajectories: the exact output bytes of a few fixed sweeps.

Each case runs ``evogate sweep`` and pins the sha256 of ``runs.csv`` and
``stats.csv`` (and ``alpha_phi.csv`` for the general task).  Any change to
the order or number of draws on the four random streams, to the breeding
step, to the arithmetic of evaluation or to the output format changes these
digests.  Re-pin them only for a change that is meant to alter results, and
say so where the change is recorded.
"""

import contextlib
import hashlib
import io
import json

import pytest

from evogate.cli import main as cli_main

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


def test_golden_sweep_general_task(tmp_path, monkeypatch):
    # relative paths: the task path is echoed into every file's metadata
    monkeypatch.chdir(tmp_path)
    (tmp_path / "task.json").write_text(json.dumps(GENERAL_TASK), encoding="utf-8")
    out = tmp_path / "out"
    _sweep(["sweep", "--task", "task.json", "--depth", "15", "--threshold", "1e-4",
            "--workers", "1", "--npop", "12", "--mutation", "0.02", "--elitism", "1",
            "--seeds", "6", "--base-seed", "2", "--max-gen", "60"], out)
    assert _sha256(out / "runs.csv") == (
        "e913947fcbe9dc8c3b00e5bbf7ece10120c1b3f73ff4d24c8cc00cb033c2c37e")
    assert _sha256(out / "stats.csv") == (
        "3c853e9bfafef233319220f772947a4749856b4049a645f01424f70019759e89")
    assert _sha256(out / "alpha_phi.csv") == (
        "1b994de2044aea1596f9b1d3b269c3ff81d2494b918c76593fb4e6dc81188e6c")
