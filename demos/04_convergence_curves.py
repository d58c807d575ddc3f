"""Ensemble convergence curves for several population sizes.

Averages the per-generation mean fitness over many seeded searches;
terminated runs keep reporting their settled value.  Larger populations push
the ensemble average closer to 1.  (The canned full-size pipeline is
``evogate reproduce fig5``; this demo uses a small ensemble to stay quick.)
"""

import numpy as np

from evogate import analysis, tasks
from evogate.ga import GAConfig, run
from evogate.genome import CodecConfig

SEEDS = 100
HORIZON = 50

task = tasks.deutsch_task()
codec = CodecConfig(depth=15)

curves = {}
for n_pop in (10, 50, 100):
    config = GAConfig(n_pop=n_pop, threshold=1e-4, codec=codec)
    records = [run(config, task, seed) for seed in range(1, SEEDS + 1)]
    mean, std, _ = analysis.ensemble_stats(records, HORIZON)
    curves[n_pop] = (mean, std)
    q_c = np.array([r.q_c for r in records])
    print(f"n_pop={n_pop:3d}: generations to terminate {q_c.min()}-{q_c.max()} "
          f"(median {int(np.median(q_c))}), "
          f"mean fitness at generation {HORIZON}: {mean[-1]:.4f} +- {std[-1]:.4f}")

print(f"\ngeneration | " + " | ".join(f"n_pop={n:3d}" for n in curves))
for g in (1, 2, 5, 10, 20, 30, 40, 50):
    row = " | ".join(f"{curves[n][0][g - 1]:9.4f}" for n in curves)
    print(f"{g:10d} | {row}")

print("\nmean error (1 - mean fitness) falls roughly geometrically early on:")
mean100 = curves[100][0]
for g in (5, 10, 15, 20, 25):
    print(f"  generation {g:2d}: {1 - mean100[g - 1]:.4f}")
