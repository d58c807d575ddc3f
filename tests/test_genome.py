import math

import numpy as np
import pytest

from evogate import genome, tasks
from evogate.genome import CodecConfig


def brute_force_decode(bits, cfg):
    """Independent oracle: the termwise signed sum, one gene at a time."""
    total = 0.0
    for l, g in enumerate(bits, start=1):
        total += (1.0 if g else -1.0) * cfg.half_range / 2.0**l
    return total


def test_all_zero_chromosome_decodes_to_lower_edge():
    for depth in (1, 5, 15):
        cfg = CodecConfig(depth=depth)
        value = genome.decode(np.zeros(depth, dtype=np.uint8), cfg)
        assert value == -cfg.half_range * (1.0 - 2.0**-depth)


def test_depth3_example():
    cfg = CodecConfig(depth=3)
    bits = np.array([1, 0, 0], dtype=np.uint8)
    assert genome.decode(bits, cfg) == cfg.half_range / 8.0


def test_decode_matches_termwise_sum():
    cfg = CodecConfig(depth=15)
    rng = np.random.default_rng(4)
    for _ in range(200):
        bits = rng.integers(0, 2, size=15, dtype=np.uint8)
        fast = genome.decode(bits, cfg)
        slow = brute_force_decode(bits, cfg)
        assert abs(fast - slow) <= 1e-15 * cfg.half_range


def reference_decode(bits, cfg):
    """decode as first written: int64 place values, then R * (... / 2**L)."""
    bits = np.asarray(bits)
    depth = bits.shape[-1]
    place = 1 << np.arange(depth - 1, -1, -1, dtype=np.int64)
    ints = bits.astype(np.int64) @ place
    full = np.int64(1) << depth
    return cfg.half_range * ((2 * ints + 1 - full) / float(full))


@pytest.mark.parametrize("depth", [*range(1, 31), 52])
def test_decode_matches_reference_bit_for_bit(depth):
    rng = np.random.default_rng(depth)
    bits = rng.integers(0, 2, size=(40, 2, 3, depth), dtype=np.uint8)
    edges = np.stack([np.zeros(depth, np.uint8), np.ones(depth, np.uint8)])
    for half_range in (math.pi, 1.0, 0.3, 2 * math.pi, 1e3):
        cfg = CodecConfig(depth=depth, half_range=half_range)
        strided = bits[::3, :, ::-1]  # non-contiguous leading axes
        reversed_genes = bits[5, 0, 1, ::-1]  # 1-D, negative stride
        for b in (bits, edges, bits[:1], bits[0, 1, 2], strided, reversed_genes, edges[1]):
            want = np.asarray(reference_decode(b, cfg))
            codes = genome.pack(b)
            assert np.array_equal(genome.unpack(codes, depth), b)
            for got in (genome.decode(b, cfg), genome.decode_codes(codes, cfg)):
                got = np.asarray(got)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("depth", range(1, 53))
def test_pack_unpack_round_trip(depth):
    rng = np.random.default_rng(100 + depth)
    bits = rng.integers(0, 2, size=(7, 2, 3, depth), dtype=np.uint8)
    top = np.ones(depth, np.uint8)
    for b in (bits, bits[::2, :, ::-1], bits[3, 1, ::-1], top, np.zeros((2, depth), np.uint8)):
        codes = genome.pack(b)
        assert codes.dtype == np.int64 and codes.shape == b.shape[:-1]
        assert np.all((0 <= codes) & (codes < 2**depth))
        assert np.array_equal(genome.unpack(codes, depth), b)
    # gene 1 is the most significant bit
    assert genome.pack(top) == 2**depth - 1
    first = np.zeros(depth, np.uint8)
    first[0] = 1
    assert genome.pack(first) == 2 ** (depth - 1)
    assert np.array_equal(genome.pack(bits.astype(bool)), genome.pack(bits))


def all_codes(depth):
    ints = np.arange(1 << depth, dtype=np.int64)
    shifts = np.arange(depth - 1, -1, -1, dtype=np.int64)
    return ((ints[:, None] >> shifts) & 1).astype(np.uint8)


@pytest.mark.parametrize("depth", range(1, 13))
def test_exhaustive_grid_properties(depth):
    cfg = CodecConfig(depth=depth)
    values = genome.decode(all_codes(depth), cfg)
    # strictly increasing in the unsigned-integer reading, hence injective
    assert np.all(np.diff(values) > 0)
    assert len(np.unique(values)) == 1 << depth
    # uniform spacing and symmetry about zero
    if depth > 1:
        gaps = np.diff(values)
        assert np.max(np.abs(gaps - cfg.spacing)) <= 1e-15 * cfg.half_range
    assert np.array_equal(np.sort(-values), values)


def test_complement_symmetry_is_exact():
    cfg = CodecConfig(depth=15)
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, size=(100, 15), dtype=np.uint8)
    assert np.array_equal(genome.decode(1 - bits, cfg), -genome.decode(bits, cfg))


def test_encode_nearest_round_trip():
    cfg = CodecConfig(depth=8)
    codes = all_codes(8)
    assert np.array_equal(genome.encode_nearest(genome.decode(codes, cfg), cfg), codes)
    # off-grid values snap to the nearest grid point
    cfg15 = CodecConfig(depth=15)
    rng = np.random.default_rng(2)
    targets = rng.uniform(-math.pi, math.pi, size=50)
    snapped = genome.decode(genome.encode_nearest(targets, cfg15), cfg15)
    assert np.max(np.abs(snapped - targets)) <= cfg15.spacing / 2 + 1e-15


def test_encode_nearest_clips_out_of_range():
    cfg = CodecConfig(depth=4)
    top = genome.encode_nearest(10.0 * cfg.half_range, cfg)
    bottom = genome.encode_nearest(-10.0 * cfg.half_range, cfg)
    assert np.array_equal(top, np.ones(4, dtype=np.uint8))
    assert np.array_equal(bottom, np.zeros(4, dtype=np.uint8))


def test_decode_rejects_wrong_depth():
    cfg = CodecConfig(depth=5)
    values = genome.decode(np.zeros((3, 5), dtype=np.uint8), cfg)
    assert values.shape == (3,)
    assert np.all(values == -cfg.half_range * (1 - 2.0**-5))
    with pytest.raises(ValueError):
        genome.decode(np.zeros(4, dtype=np.uint8), cfg)


def test_rounding_error_bound_values():
    cfg = CodecConfig(depth=15, half_range=math.pi)
    task = tasks.deutsch_task()  # d = 2, two trainable slots
    bound = genome.rounding_error_bound(cfg, task)
    assert bound == 8.0 * math.pi * 2.0**-14
    assert abs(bound - 1.5e-3) < 5e-5
    deeper = genome.rounding_error_bound(CodecConfig(depth=16), task)
    assert deeper == bound / 2.0
    ket0 = np.array([1.0, 0.0])
    slots = tuple(tasks.TrainableSlot(k) for k in range(1, 5))
    four = tasks.TaskSpec(tasks.CircuitTemplate(2, slots), ket0, (("x", ket0),))
    assert genome.rounding_error_bound(cfg, four) == 2.0 * bound


def test_codec_validation():
    with pytest.raises(ValueError):
        CodecConfig(depth=0)
    # 52 is the deepest grid that is exact in doubles
    assert genome.MAX_DEPTH == 52
    CodecConfig(depth=52)
    for depth in (53, 63, 64):
        with pytest.raises(ValueError, match="depth"):
            CodecConfig(depth=depth)
    with pytest.raises(ValueError):
        CodecConfig(depth=3, half_range=0.0)


def test_codec_rejects_half_range_whose_squares_overflow():
    # su2_closed_form adds three squared components: inf there made every
    # fitness NaN and a run went to its generation cap
    CodecConfig(depth=15, half_range=7.7e153)
    for half_range in (math.inf, 1e308, 7.8e153, math.nan, -math.inf):
        with pytest.raises(ValueError, match="half_range"):
            CodecConfig(depth=15, half_range=half_range)


def test_string_serialization_round_trip():
    rng = np.random.default_rng(6)
    g = rng.integers(0, 2, size=(2, 3, 15), dtype=np.uint8)
    strings = genome.genome_to_strings(g)
    assert len(strings) == 2 and len(strings[0]) == 3
    assert all(len(s) == 15 and set(s) <= {"0", "1"} for slot in strings for s in slot)
    assert np.array_equal(genome.genome_from_strings(strings), g)
    field = genome.genome_to_field(g)
    assert "," not in field
    assert np.array_equal(genome.genome_from_field(field), g)


def test_chromosome_string_rejects_garbage():
    with pytest.raises(ValueError):
        genome.chromosome_from_string("01x1")
    with pytest.raises(ValueError):
        genome.chromosome_from_string("")
