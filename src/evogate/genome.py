"""Binary genetic encoding of rotation-parameter vectors.

A chromosome is a fixed-length string of ``L`` 0/1 genes; a parameter vector
for one trainable unitary needs ``d*d - 1`` chromosomes, and a genome stacks
one such block per trainable slot.  A chromosome has two forms: a uint8 bit
array (last axis the genes, gene 1 first), used at the edges of a run and in
every output file, and its integer code, the genes read as one unsigned
``L``-bit int64 with gene 1 the most significant bit, which the search
carries.  :func:`pack` and :func:`unpack` convert between them.  Genomes are
treated as immutable values: every operator returns fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CodecConfig",
    "MAX_DEPTH",
    "chromosome_from_string",
    "chromosome_to_string",
    "decode",
    "decode_codes",
    "encode_nearest",
    "genome_from_field",
    "genome_from_strings",
    "genome_to_field",
    "genome_to_strings",
    "pack",
    "rounding_error_bound",
    "unpack",
]

# the largest depth whose grid numerators 2*u + 1 - 2**depth are exact doubles
MAX_DEPTH = 52


@dataclass(frozen=True)
class CodecConfig:
    """Fixed-point binary codec for rotation parameters.

    ``depth`` is the number of genes per chromosome, ``half_range`` the
    magnitude the code approaches at its ends, and ``dim`` the Hilbert-space
    dimension (a parameter vector has ``dim**2 - 1`` components).  The
    decoded grid has ``2**depth`` points with spacing
    ``half_range * 2**(1 - depth)``, symmetric about zero.  ``depth`` runs
    from 1 to :data:`MAX_DEPTH` (52), where the grid is still exact in
    double precision; ``half_range`` must keep ``3 * half_range**2`` finite
    (below about 7.7e153).
    """

    depth: int
    half_range: float = math.pi
    dim: int = 2

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {self.depth}")
        # 3 * half_range**2 bounds the squared norm that su2_closed_form forms
        if not (self.half_range > 0 and math.isfinite(3 * self.half_range * self.half_range)):
            raise ValueError("half_range must be positive with 3 * half_range**2 finite, "
                             f"got {self.half_range}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")

    @property
    def spacing(self) -> float:
        """Gap between neighboring decodable values."""
        return self.half_range * 2.0 ** (1 - self.depth)

    @property
    def n_components(self) -> int:
        """Chromosomes per parameter vector."""
        return self.dim * self.dim - 1


def pack(bits: np.ndarray) -> np.ndarray:
    """Integer codes of 0/1 gene strings, gene 1 the most significant bit.

    The last axis is the chromosome; leading axes pass through, so
    ``pack`` of a ``(..., L)`` bit array is a ``(...)`` int64 array with
    entries in ``[0, 2**L)``.  Bool and uint8 genes both work.
    """
    bits = np.asarray(bits)
    depth = bits.shape[-1]
    return (bits.reshape(-1, depth) @ _place_values(depth)).reshape(bits.shape[:-1])


def unpack(codes: np.ndarray, depth: int) -> np.ndarray:
    """Inverse of :func:`pack`: ``(...)`` codes -> ``(..., depth)`` uint8 genes."""
    shifts = np.arange(depth - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(codes)[..., None] >> shifts) & 1).astype(np.uint8)


@lru_cache(maxsize=None)
def _place_values(depth: int) -> np.ndarray:
    """Read-only int64 weights 2**(depth-l) of genes l = 1..depth."""
    place = np.left_shift(1, np.arange(depth - 1, -1, -1, dtype=np.int64))
    place.flags.writeable = False
    return place


def decode_codes(codes: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Map integer chromosome codes to reals on the symmetric grid.

    Code ``u`` in ``[0, 2**L)`` decodes to ``R * (2*u + 1 - 2**L) / 2**L``.
    ``2*u + 1 - 2**L`` is an exact int64 whose magnitude stays below
    ``2**L``, so it converts to a double exactly while ``L <= 52`` (the
    bound :class:`CodecConfig` enforces), and ``R / 2**L`` only rescales R
    by a power of two: the product rounds once, like ``R * ((2*u + 1 -
    2**L) / 2**L)``.  The output has the shape of ``codes``.
    """
    full = 1 << cfg.depth
    return (2 * np.asarray(codes) + (1 - full)) * (cfg.half_range / full)


def decode(bits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Map 0/1 gene strings to reals on the symmetric grid.

    Gene ``l`` (1-based, most significant first) contributes
    ``+half_range / 2**l`` when set and ``-half_range / 2**l`` when clear, so
    an ``L``-bit string lands on one of ``2**L`` equally spaced values in
    ``[-R(1 - 2**-L), +R(1 - 2**-L)]``.  This is :func:`decode_codes` of the
    :func:`pack`-ed genes, so a bit array and its code decode to the same
    bits.

    The last axis is the chromosome; leading axes pass through, so a whole
    genome (or population of genomes) decodes in one call.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] != cfg.depth:
        raise ValueError(f"chromosome length {bits.shape[-1]} != codec depth {cfg.depth}")
    return decode_codes(pack(bits), cfg)


def encode_nearest(values: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Bits of the grid point nearest each value (clipped to the code range).

    Inverse of :func:`decode` on the grid: ``encode_nearest(decode(c)) == c``.
    """
    x = np.asarray(values, dtype=float)
    full = 1 << cfg.depth
    ints = np.rint((x / cfg.half_range * full - 1 + full) / 2.0).astype(np.int64)
    return unpack(np.clip(ints, 0, full - 1), cfg.depth)


def rounding_error_bound(cfg: CodecConfig, n_slots: int) -> float:
    """Diagnostic scale of the error floor from the finite bit depth.

    Proportional bound ``d**2 * n_slots * spacing``; halves when the depth
    grows by one and doubles with the slot count.
    """
    return cfg.dim**2 * n_slots * cfg.spacing


def chromosome_to_string(bits: np.ndarray) -> str:
    """Chromosome as a '0'/'1' string, most significant gene first."""
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def chromosome_from_string(s: str) -> np.ndarray:
    """Parse a '0'/'1' string back into a chromosome."""
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"invalid chromosome string: {s!r}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def genome_to_strings(genome: np.ndarray) -> list[list[str]]:
    """Genome as nested lists of bit strings, slot index then generator index."""
    genome = np.asarray(genome)
    return [[chromosome_to_string(chrom) for chrom in slot] for slot in genome]


def genome_from_strings(strings) -> np.ndarray:
    """Inverse of :func:`genome_to_strings`."""
    return np.stack(
        [np.stack([chromosome_from_string(s) for s in slot]) for slot in strings]
    ).astype(np.uint8)


def genome_to_field(genome: np.ndarray) -> str:
    """Genome as a single CSV-safe field: chromosomes joined by '|', slots by ';'."""
    return ";".join("|".join(slot) for slot in genome_to_strings(genome))


def genome_from_field(field: str) -> np.ndarray:
    """Inverse of :func:`genome_to_field`."""
    return genome_from_strings([slot.split("|") for slot in field.split(";")])
