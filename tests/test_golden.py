"""Golden trajectories: the exact output bytes of a few fixed sweeps.

Each case runs ``evogate sweep`` and pins the sha256 of ``runs.csv`` and
``stats.csv``.  Any change to the order or number of draws on the four
random streams, to the breeding step, to evaluation or to the output format
changes these digests.  Re-pin them only for a change that is meant to alter
results, and say so where the change is recorded.
"""

import contextlib
import hashlib
import io

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
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_sweep(name, tmp_path):
    flags, runs_digest, stats_digest = CASES[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(COMMON + flags + ["--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "runs.csv") == runs_digest
    assert _sha256(tmp_path / "stats.csv") == stats_digest
