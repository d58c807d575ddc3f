"""How binary chromosomes encode rotation parameters.

Each trainable unitary carries three real parameters; every parameter is an
L-bit string that lands on a symmetric grid of 2**L points.  A chromosome is
carried as its integer code, the string read as an unsigned integer with
gene 1 the most significant bit.  This script walks through the decode map
and its rounding-error scale.
"""

import numpy as np

from evogate import deutsch_task
from evogate.genome import (
    CodecConfig,
    decode,
    encode_nearest,
    genome_to_strings,
    pack,
    rounding_error_bound,
)

cfg = CodecConfig(depth=5)
print(f"codec: {cfg.depth} genes per chromosome, half-range {cfg.half_range:.4f} rad")
print(f"grid spacing: {cfg.spacing:.6f} rad ({1 << cfg.depth} points)\n")

# the first gene steers the sign of the largest contribution
for code in (0, 15, 16, 31):
    print(f"  code {code:2d} = {code:0{cfg.depth}b} -> {float(decode(code, cfg)):+.6f}")

codes = np.arange(1 << cfg.depth)
values = decode(codes, cfg)
print(f"\nfull grid: min {values.min():+.4f}, max {values.max():+.4f}, "
      f"every gap equals {np.diff(np.sort(values)).mean():.6f}")

# nearest-point encoding inverts the map on the grid
target = 1.234
code = int(encode_nearest(target, cfg))
snapped = float(decode(code, cfg))
print(f"encode_nearest({target}) -> code {code} = {code:0{cfg.depth}b} -> {snapped:+.6f} "
      f"(off by {abs(snapped - target):.2e}, at most half a gap)")

# production depth: 15 genes shrink the rounding floor to ~1e-3; the task
# fixes the genome shape, here two trainable unitaries of three parameters
deep = CodecConfig(depth=15)
task = deutsch_task()
print(f"\nat depth 15 the rounding-error scale for two trainable unitaries is "
      f"{rounding_error_bound(deep, task):.2e}")

# two slots of three fair-coin chromosomes each, drawn as genes and packed
bits = np.random.default_rng(42).integers(
    0, 2, size=(task.n_slots, task.n_components, deep.depth), dtype=np.uint8)
g = pack(bits)
print(f"a random genome is a {g.shape} array of codes:")
for slot_codes, slot_strings in zip(g.tolist(), genome_to_strings(g, deep.depth)):
    print("  " + "  ".join(f"{c:5d} = {s}" for c, s in zip(slot_codes, slot_strings)))
print("decoded parameters:")
print(np.array2string(decode(g, deep), precision=4))
