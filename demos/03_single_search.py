"""One full genetic search on the one-bit oracle-decision task.

The task: route |0> to |0> when the hidden Boolean function is constant and
to |1> when it is balanced, with the phase oracle applied exactly once
between two trainable single-qubit unitaries.  The search evolves binary
genomes until the population's fitness spread falls below a threshold, then
we inspect what kind of circuit it found.
"""

import numpy as np

from evogate import analysis, genome, tasks
from evogate.ga import GAConfig, run
from evogate.genome import CodecConfig

task = tasks.deutsch_task()
codec = CodecConfig(depth=15)
config = GAConfig(n_pop=100, threshold=1e-4, codec=codec)

record = run(config, task, seed=2026)
print(f"terminated: {record.termination_reason} after {record.q_c} generations")
print(f"best fitness {record.best_fitness:.8f}  (mean error {record.epsilon_opt:.2e})\n")

print("generation  mean_fitness  fluctuation  best")
for g in range(0, record.q_c, max(1, record.q_c // 10)):
    print(f"{g + 1:10d}  {record.mean_fitness[g]:.6f}      {record.fluctuation[g]:.6f}     "
          f"{record.best_fitness_series[g]:.6f}")

# what did it find?  decode the winning genome's integer codes and build its
# unitaries as the search scored them, then look at the geometry
print(f"\nbest genome, one code per rotation parameter: {record.best_genome.tolist()}")
params = genome.decode(record.best_genome, codec)
u_first, u_last = tasks.trainable_unitaries(task, params)
print("\nthe two evolved unitaries, as Bloch rotations:")
for name, u in (("first", u_first), ("last", u_last)):
    b = analysis.bloch_decompose(u)
    print(f"  {name}: rotation 2*theta = {2 * b.theta:.4f} rad, axis "
          f"({b.axis[0]:+.3f}, {b.axis[1]:+.3f}, {b.axis[2]:+.3f})")

ps = analysis.prepared_state(u_first, task.initial_state)
print(f"\nstate after the first unitary: alpha = {ps.alpha:.4f} "
      f"(equator is 1/sqrt(2) = {1 / np.sqrt(2):.4f}), phase = {ps.phi:+.4f} rad")
print("balanced-superposition condition met:",
      abs(ps.alpha - 1 / np.sqrt(2)) <= 0.02)

outs = [
    tasks.compose_total(task, params, label) @ task.initial_state
    for label, _ in task.pairs
]
ok_c, ok_b, defect = tasks.decision_outcome(outs[0], outs[1])
print(f"\ndecision statistics: constant branch {ok_c:.6f}, balanced branch {ok_b:.6f}, "
      f"output-overlap defect {defect:.2e}")
print("(a perfect single-query discriminator has probabilities 1, 1 and defect 0)")
