"""From real parameter vectors to unitary matrices.

A parameter vector p turns into the unitary exp(-i p . sigma) over the
generator basis.  For qubits there is also a closed rotation form, which this
script checks against the eigendecomposition path and reads back
geometrically.
"""

import numpy as np

from evogate import linalg
from evogate.analysis import bloch_decompose

print("generator bases (traceless, Hermitian, Tr(s_a s_b) = 2 delta_ab):")
for d in (2, 3, 4):
    gens = linalg.generator_stack(d)
    gram_ok = all(
        abs(np.trace(a @ b) - (2.0 if i == j else 0.0)) < 1e-13
        for i, a in enumerate(gens)
        for j, b in enumerate(gens)
    )
    print(f"  d={d}: {len(gens)} generators, orthogonality check: {gram_ok}")

# the qubit case: three parameters, one rotation
p = (np.pi / 2) * np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
u = linalg.unitary_from_params(p, 2)
print("\nparameters", np.round(p, 4), "give the unitary")
print(np.array2string(u, precision=4, suppress_small=True))
hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
print("which is the Hadamard gate up to the global phase -i:",
      np.max(np.abs(u - (-1j) * hadamard)) < 1e-12)

b = bloch_decompose(u)
print(f"geometry: Bloch rotation by 2*theta = {2 * b.theta:.4f} rad about axis "
      f"({b.axis[0]:+.4f}, {b.axis[1]:+.4f}, {b.axis[2]:+.4f})")

# the closed form and the eigendecomposition agree to machine precision
rng = np.random.default_rng(0)
sample = rng.uniform(-np.pi, np.pi, size=(100_000, 3))
gap = np.max(np.abs(linalg.su2_closed_form(sample) - linalg.unitary_from_params(sample, 2)))
print(f"\nclosed form vs eigendecomposition over {len(sample)} samples: "
      f"max difference {gap:.2e}")

batch = linalg.su2_closed_form(sample[:1000])
unitarity = np.max(np.abs(batch @ batch.conj().swapaxes(-1, -2) - np.eye(2)))
print(f"worst unitarity defect in a 1000-sample batch: {unitarity:.2e}")
