"""How binary chromosomes encode rotation parameters.

Each trainable unitary carries three real parameters; every parameter is an
L-bit string that lands on a symmetric grid of 2**L points.  The search
carries each string as its integer code (gene 1 the most significant bit).
This script walks through the decode map and its rounding-error scale.
"""

import numpy as np

from evogate.genome import (
    CodecConfig,
    decode,
    decode_codes,
    encode_nearest,
    pack,
    rounding_error_bound,
    unpack,
)

cfg = CodecConfig(depth=5)
print(f"codec: {cfg.depth} genes per chromosome, half-range {cfg.half_range:.4f} rad")
print(f"grid spacing: {cfg.spacing:.6f} rad ({1 << cfg.depth} points)\n")

# the first gene steers the sign of the largest contribution
for bits in ("00000", "01111", "10000", "11111"):
    arr = np.array([int(b) for b in bits], dtype=np.uint8)
    print(f"  {bits} (code {int(pack(arr)):2d}) -> {float(decode(arr, cfg)):+.6f}")

codes = np.arange(1 << cfg.depth)
assert np.array_equal(decode(unpack(codes, cfg.depth), cfg), decode_codes(codes, cfg))
values = decode_codes(codes, cfg)
print(f"\nfull grid: min {values.min():+.4f}, max {values.max():+.4f}, "
      f"every gap equals {np.diff(np.sort(values)).mean():.6f}")

# nearest-point encoding inverts the map on the grid
target = 1.234
snapped = float(decode(encode_nearest(target, cfg), cfg))
print(f"encode_nearest({target}) -> {snapped:+.6f} "
      f"(off by {abs(snapped - target):.2e}, at most half a gap)")

# production depth: 15 genes shrink the rounding floor to ~1e-3
deep = CodecConfig(depth=15)
print(f"\nat depth 15 the rounding-error scale for two trainable unitaries is "
      f"{rounding_error_bound(deep, n_slots=2):.2e}")

# two slots of three fair-coin chromosomes each
g = np.random.default_rng(42).integers(0, 2, size=(2, deep.n_components, deep.depth),
                                       dtype=np.uint8)
print(f"a random genome is a {g.shape} bit array; decoded parameters:")
print(np.array2string(decode(g, deep), precision=4))
