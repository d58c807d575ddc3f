"""What all the found circuits have in common.

Any working single-query discriminator must first rotate |0> onto the
equator of the Bloch sphere: the prepared state alpha |0> + e^{i phi}
sqrt(1-alpha^2) |1> needs |alpha| = 1/sqrt(2), while phi is free.  The
searches discover this on their own: across converged runs, alpha clusters
tightly at 1/sqrt(2) and phi scatters over the whole circle.  (Full-size
version: ``evogate reproduce fig6``.)
"""

import numpy as np

from evogate import analysis, genome, linalg, tasks
from evogate.ga import GAConfig, run
from evogate.genome import CodecConfig

SEEDS = 150

task = tasks.deutsch_task()
codec = CodecConfig(depth=15)
config = GAConfig(n_pop=100, threshold=1e-4, codec=codec)

states = []
for seed in range(1, SEEDS + 1):
    record = run(config, task, seed)
    if record.termination_reason != "converged" or record.epsilon_opt >= 1e-3:
        continue
    params = genome.decode(record.best_genome, codec)  # the best genome's codes
    states.append(
        analysis.prepared_state(linalg.su2_closed_form(params[0]), task.initial_state)
    )

alphas = np.array([s.alpha for s in states])
phis = np.array([s.phi for s in states])
print(f"{len(states)} of {SEEDS} runs converged below mean error 1e-3\n")
print(f"alpha: mean {alphas.mean():.4f}, spread {alphas.std():.4f} "
      f"(equator = {1 / np.sqrt(2):.4f})")
print(f"phi:   spans [{phis.min():+.3f}, {phis.max():+.3f}] rad "
      f"-- essentially arbitrary")

on_equator = int(np.sum(np.abs(alphas - 1 / np.sqrt(2)) <= 0.02))
print(f"balance condition |alpha - 1/sqrt(2)| <= 0.02: {on_equator}/{len(states)} runs")

print("\nalpha histogram (each * is one run):")
edges = np.linspace(0.69, 0.725, 8)
for lo, hi in zip(edges[:-1], edges[1:]):
    n = int(np.sum((alphas >= lo) & (alphas < hi)))
    print(f"  [{lo:.4f}, {hi:.4f}): {'*' * n}")

print("\nphi histogram over (-pi, pi]:")
edges = np.linspace(-np.pi, np.pi, 9)
for lo, hi in zip(edges[:-1], edges[1:]):
    n = int(np.sum((phis > lo) & (phis <= hi)))
    print(f"  ({lo:+.2f}, {hi:+.2f}]: {'*' * n}")
