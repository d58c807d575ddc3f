"""Set-up time of evogate in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR NPOP MUTATION ELITISM

Times ``import evogate``, resolving the ``deutsch`` task, building the GA
config and one warm-up run (which fills the codec and generator caches), and
prints the elapsed seconds.  Interpreter start-up itself is not counted.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

src, npop, mutation, elitism = sys.argv[1:5]
sys.path.insert(0, src)

from evogate import cli, ga  # noqa: E402

task = cli.resolve_task("deutsch")
cfg = cli.ExperimentConfig(npop=int(npop), mutation=float(mutation), elitism=int(elitism))
ga.run(cli.make_ga_config(cfg, task), task, cfg.base_seed)
print(repr(time.perf_counter() - T0))
