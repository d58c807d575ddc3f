import copy
import math

import numpy as np
import pytest
from numpy.random import PCG64, Generator

from evogate import ga, genome, tasks
from evogate.ga import GAConfig, Population, RngStreams
from evogate.genome import CodecConfig

CODEC = CodecConfig(depth=15)
TASK = tasks.deutsch_task()


def make_config(n_pop=20, **kw):
    defaults = dict(n_pop=n_pop, threshold=1e-4, codec=CODEC)
    defaults.update(kw)
    return GAConfig(**defaults)


def draws(cfg, seed):
    """A run's draw source on the streams of ``seed``."""
    return ga.Draws(RngStreams.from_seed(seed), cfg, (2, 3))


def random_bits(n_pop, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=(n_pop, 2, 3, 15), dtype=np.uint8)


def random_codes(n_pop, seed=0):
    return genome.pack(random_bits(n_pop, seed))


def bits_of(codes, depth):
    """Reference inverse of genome.pack: (...) codes -> (..., depth) uint8 genes."""
    shifts = np.arange(depth - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(codes)[..., None] >> shifts) & 1).astype(np.uint8)


# ---------------------------------------------------------------- selection

def test_selection_probabilities_two_individuals():
    p = ga.selection_probabilities(2)
    assert p[0] == 2.0 / 3.0
    assert p[1] == 1.0 / 3.0


def test_selection_rank_identity_exact():
    for n in range(2, 401):
        p = ga.selection_probabilities(n)
        assert p[-1] == p[0] / n


def test_selection_weights_are_libm_pow():
    # numpy's float64 power picks its kernel by SIMD level; libm's pow does
    # not, so the table (and every rank bound) is the same on every CPU
    for n in range(2, 401):
        w = np.array([math.pow(n, -r / (n - 1)) for r in range(n)])
        p = w / w.sum()
        p[-1] = p[0] / n
        assert ga.selection_probabilities(n).tobytes() == p.tobytes(), n


def test_selection_probabilities_shape():
    p = ga.selection_probabilities(100)
    assert np.all(np.diff(p) < 0)
    assert abs(p.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        ga.selection_probabilities(1)


def test_select_parents_two_individuals():
    pairs = ga.select_parents(2, 50, np.random.default_rng(0))
    assert pairs.shape == (50, 2)
    for pair in pairs.tolist():
        assert set(pair) == {0, 1}


def test_select_parents_bounds_and_distinctness():
    pairs = ga.select_parents(10, 2000, np.random.default_rng(1))
    assert np.all((pairs >= 0) & (pairs < 10))
    assert np.all(pairs[:, 0] != pairs[:, 1])


def test_select_parents_first_rank_frequency():
    # the first parent is an unconditioned rank draw
    n = 10
    probs = ga.selection_probabilities(n)
    draws = 100_000
    hits = int(np.sum(ga.select_parents(n, draws, np.random.default_rng(123))[:, 0] == 0))
    sigma = np.sqrt(draws * probs[0] * (1 - probs[0]))
    assert abs(hits - draws * probs[0]) <= 3 * sigma


@pytest.mark.parametrize("n_pop", [2, 3, 10, 100, 401])
def test_rank_bounds_match_clamped_cdf_search(n_pop):
    cdf = np.cumsum(ga.selection_probabilities(n_pop))
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)], np.linspace(0.0, 1.0, 1001)[:-1]])
    want = np.minimum(np.searchsorted(cdf, u, side="right"), n_pop - 1)
    assert np.array_equal(np.searchsorted(ga._rank_bounds(n_pop), u, side="right"), want)


def _reference_pairs(probs, n_pairs, rng):
    """Parent ranks drawn one double at a time, the way the draw contract reads."""
    cdf = np.cumsum(probs)

    def draw():
        return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)

    pairs = []
    for _ in range(n_pairs):
        first, second = draw(), draw()
        while second == first:
            second = draw()
        pairs.append((first, second))
    return pairs


def _bool_segment_masks(depth):
    """Swap masks of every cut pair 1 <= s <= e <= depth as bool gene rows."""
    rows = []
    for s in range(1, depth + 1):
        for e in range(s, depth + 1):
            row = np.zeros(depth, dtype=bool)
            row[s - 1 : e] = True
            rows.append(row)
    return np.stack(rows)


@pytest.mark.parametrize("depth", range(1, 53))
def test_segment_masks_are_the_packed_bool_table(depth):
    masks = ga._segment_masks(depth)
    assert masks.dtype == np.int64 and len(masks) == depth * (depth + 1) // 2
    assert np.array_equal(masks, genome.pack(_bool_segment_masks(depth)))


def _reference_generation(bits, cfg, streams):
    """Children's bits bred pair by pair, one call per pair and kid on each stream."""
    masks = _bool_segment_masks(cfg.codec.depth)
    children = list(bits[: cfg.elitism])
    n_pairs = (cfg.n_pop - cfg.elitism + 1) // 2
    probs = ga.selection_probabilities(cfg.n_pop)
    for first, second in _reference_pairs(probs, n_pairs, streams.selection):
        a, b = bits[first], bits[second]
        swap = masks[streams.crossover.integers(0, len(masks), size=a.shape[:-1])]
        kids = [np.where(swap, b, a), np.where(swap, a, b)]
        if cfg.mutation_rate > 0:
            kids = [np.where(streams.mutation.random(k.shape) < cfg.mutation_rate, 1 - k, k)
                    .astype(np.uint8) for k in kids]
        children.extend(kids)
    return np.stack(children[: cfg.n_pop])


def _reference_evaluate(bits):
    """Bits and fitness sorted by descending fitness, ties in order."""
    fitness = tasks.population_fitness(TASK, genome.decode(genome.pack(bits), CODEC))
    order = np.argsort(-fitness, kind="stable")
    return bits[order], fitness[order]


@pytest.mark.parametrize("n_pop", [2, 3, 10, 11, 100, 400, 401])
def test_select_parents_matches_per_pair_reference(n_pop):
    probs = ga.selection_probabilities(n_pop)
    for n_pairs in (0, 1, 2, 5, 37, 200):
        rng, ref_rng = np.random.default_rng(n_pop), np.random.default_rng(n_pop)
        for _ in range(3):
            pairs = ga.select_parents(n_pop, n_pairs, rng)
            assert pairs.tolist() == [list(p) for p in _reference_pairs(probs, n_pairs, ref_rng)]
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _reference_ranks(n_pop, n_ranks, rng):
    """Ranks of ``n_ranks`` single double draws."""
    cdf = np.cumsum(ga.selection_probabilities(n_pop))
    return [min(int(np.searchsorted(cdf, rng.random(), side="right")), n_pop - 1)
            for _ in range(n_ranks)]


def _reference_breeding(cfg, streams):
    """One generation's swap masks and packed flips (None at a zero rate),
    drawn by the per-generation calls of the draw contract."""
    masks = ga._segment_masks(cfg.codec.depth)
    n_pairs = (cfg.n_pop - cfg.elitism + 1) // 2
    swaps = masks.take(streams.crossover.integers(0, len(masks), size=(n_pairs, 2, 3)))
    if cfg.mutation_rate == 0:
        return swaps, None
    genes = streams.mutation.random((n_pairs, 2, 2, 3, cfg.codec.depth))
    return swaps, genome.pack(genes < cfg.mutation_rate)


@pytest.mark.parametrize("n_pop", [2, 3, 10, 11, 100, 101])
@pytest.mark.parametrize("mutation_rate", [0.0, 0.01, 1.0])
def test_next_generation_matches_per_pair_reference(n_pop, mutation_rate):
    # 20 generations cross two draw blocks; then the draw source's next
    # values must be the reference streams' next values, so every
    # generation took exactly the draws of the per-generation calls
    for elitism in sorted({0, 1, n_pop - 1, n_pop}):
        cfg = make_config(n_pop=n_pop, mutation_rate=mutation_rate, elitism=elitism)
        bits, _ = _reference_evaluate(random_bits(n_pop, seed=n_pop + elitism))
        pop = ga.evaluate(genome.pack(bits), TASK, CODEC)
        streams, ref = RngStreams.from_seed(elitism), RngStreams.from_seed(elitism)
        source = ga.Draws(streams, cfg, (2, 3))
        for _ in range(20):
            nxt = ga.next_generation(pop, cfg, TASK, source)
            bits, want_fitness = _reference_evaluate(_reference_generation(bits, cfg, ref))
            assert np.array_equal(nxt.genomes, genome.pack(bits))
            assert np.array_equal(nxt.fitness, want_fitness)
            pop = nxt
        n_pairs = (n_pop - elitism + 1) // 2
        n_ranks = 2 * n_pairs + 3 if n_pairs else 0  # no pairs, no ranks drawn
        assert source.ranks(n_ranks) == _reference_ranks(n_pop, n_ranks, ref.selection)
        (swaps, flips), (want_swaps, want_flips) = source.breeding(), _reference_breeding(cfg, ref)
        assert np.array_equal(swaps, want_swaps)
        assert (flips is None) if want_flips is None else np.array_equal(flips, want_flips)
        if mutation_rate == 0:  # a zero rate draws nothing
            assert (streams.mutation.bit_generator.state
                    == RngStreams.from_seed(elitism).mutation.bit_generator.state)


@pytest.mark.parametrize("cap", [1, 2, 8, 9, 11])
def test_draws_stop_at_the_generation_cap(cap):
    # a run breeds cap - 1 generations: the crossover and mutation streams
    # end where that many per-generation calls leave them, and no more is drawn
    cfg = make_config(n_pop=11, mutation_rate=0.01, elitism=2, max_generations=cap)
    streams, ref = RngStreams.from_seed(cap), RngStreams.from_seed(cap)
    source = ga.Draws(streams, cfg, (2, 3))
    for _ in range(cap - 1):
        swaps, flips = source.breeding()
        want_swaps, want_flips = _reference_breeding(cfg, ref)
        assert np.array_equal(swaps, want_swaps) and np.array_equal(flips, want_flips)
    with pytest.raises(StopIteration):
        source.breeding()
    for label in ("crossover", "mutation"):
        assert (getattr(streams, label).bit_generator.state
                == getattr(ref, label).bit_generator.state)


def _block_and_calls(n, shape, generations, seed):
    """One (generations, *shape) integers call and ``generations`` calls of
    ``shape`` on twin streams, then the same for doubles."""
    block, single = Generator(PCG64(seed)), Generator(PCG64(seed))
    ints = (block.integers(0, n, size=(generations, *shape)),
            np.stack([single.integers(0, n, size=shape) for _ in range(generations)]))
    doubles = (block.random((generations, *shape)),
               np.stack([single.random(shape) for _ in range(generations)]))
    return block, single, ints, doubles


# every crossover range L(L+1)/2 of depths 1..52, then two ranges where
# Lemire's bounded draw rejects about a quarter and a half of its 32-bit values
@pytest.mark.parametrize("n", [depth * (depth + 1) // 2 for depth in range(1, 53)]
                         + [3 * 2**30, 2**31 + 1])
def test_block_draws_equal_per_generation_calls(n):
    # Draws relies on numpy drawing one (G, ...) block exactly as G calls:
    # integers below 2**32 take PCG64's 32-bit halves, and the spare half
    # is kept in the bit generator's state across calls; doubles come in order
    for shape in ((5, 1, 3), (6, 2, 3)):  # odd and even sizes per generation
        for generations in (ga.BLOCK_GENERATIONS, 3):
            block, single, ints, doubles = _block_and_calls(n, shape, generations, seed=n)
            assert np.array_equal(*ints) and np.array_equal(*doubles)
            assert block.bit_generator.state == single.bit_generator.state
            assert np.array_equal(block.integers(0, n, size=7), single.integers(0, n, size=7))
            assert np.array_equal(block.random(7), single.random(7))


# ------------------------------------------------------- crossover, mutation

def _bred(genomes, cfg, seed, monkeypatch):
    """Children's bits of one generation in breeding order (pair-major, kid a
    first), bred from the given bits."""
    monkeypatch.setattr(ga, "evaluate",
                        lambda codes, task, codec: Population(codes, np.zeros(len(codes))))
    streams = RngStreams.from_seed(seed)
    pairs = ga.select_parents(cfg.n_pop, (cfg.n_pop + 1) // 2, copy.deepcopy(streams.selection))
    pop = Population(genome.pack(genomes), np.zeros(len(genomes)))
    nxt = ga.next_generation(pop, cfg, TASK, ga.Draws(streams, cfg, genomes.shape[1:3]))
    return bits_of(nxt.genomes, cfg.codec.depth), pairs, streams


def test_crossover_identical_parents(monkeypatch):
    g = np.random.default_rng(2).integers(0, 2, size=(1, 2, 3, 15), dtype=np.uint8)
    genomes = np.repeat(g, 7, axis=0)
    kids, _, _ = _bred(genomes, make_config(n_pop=7), 3, monkeypatch)
    assert np.array_equal(kids, genomes)


def test_crossover_conserves_bits_per_position(monkeypatch):
    codec = CodecConfig(depth=8)
    cfg = make_config(n_pop=100, codec=codec)
    rng = np.random.default_rng(5)
    for seed in range(200):  # 50 pairs each: 10,000 pairs
        genomes = rng.integers(0, 2, size=(100, 2, 3, 8), dtype=np.uint8)
        kids, pairs, _ = _bred(genomes, cfg, seed, monkeypatch)
        kids = kids.astype(np.int64).reshape(50, 2, 2, 3, 8)
        parents = genomes[pairs].astype(np.int64)
        assert np.array_equal(kids.sum(axis=1), parents.sum(axis=1))


def test_crossover_swaps_one_contiguous_segment(monkeypatch):
    # all-zero vs all-one parents: kid a differs from its first parent
    # exactly on the swap mask; 1400 slots x 3 components = 4200 chromosomes
    depth = 6
    cfg = make_config(n_pop=2, codec=CodecConfig(depth=depth))
    genomes = np.stack([np.zeros((1400, 3, depth), np.uint8), np.ones((1400, 3, depth), np.uint8)])
    kids, pairs, _ = _bred(genomes, cfg, 7, monkeypatch)
    masks = (kids[0] ^ genomes[pairs[0, 0]]).reshape(-1, depth)
    n_pairs = depth * (depth + 1) // 2
    draws = len(masks)
    counts = {}
    for mask in masks:
        ones = np.flatnonzero(mask)
        assert ones.size >= 1  # a cut pair always swaps something
        assert np.all(np.diff(ones) == 1)  # contiguous
        key = (int(ones[0]), int(ones[-1]))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == n_pairs  # every ordered cut pair occurs
    # and uniformly: each within 4 binomial sigma of draws / n_pairs
    expected = draws / n_pairs
    sigma = math.sqrt(draws * (1 / n_pairs) * (1 - 1 / n_pairs))
    worst = max(abs(c - expected) for c in counts.values())
    assert worst <= 4 * sigma


def test_mutate_zero_rate_is_identity():
    # a zero rate draws nothing from the mutation stream
    cfg = make_config(n_pop=9)
    pop = ga.evaluate(random_codes(9, seed=8), TASK, CODEC)
    streams = RngStreams.from_seed(0)
    before = streams.mutation.bit_generator.state
    ga.next_generation(pop, cfg, TASK, ga.Draws(streams, cfg, (2, 3)))
    assert streams.mutation.bit_generator.state == before


def test_mutate_full_rate_is_complement():
    g = np.random.default_rng(1).integers(0, 2, size=(1, 2, 3, 15), dtype=np.uint8)
    cfg = make_config(n_pop=6, mutation_rate=1.0)
    pop = ga.evaluate(genome.pack(np.repeat(g, 6, axis=0)), TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, draws(cfg, 2))
    assert np.array_equal(nxt.genomes, genome.pack(np.repeat(1 - g, 6, axis=0)))


def test_mutate_flip_fraction(monkeypatch):
    # 8 all-zero genomes of 2778 slots x 3 x 15 genes: 1,000,080 genes bred
    cfg = make_config(n_pop=8, mutation_rate=0.01)
    kids, _, _ = _bred(np.zeros((8, 2778, 3, 15), np.uint8), cfg, 3, monkeypatch)
    assert 0.008 <= kids.mean() <= 0.012


def test_mutate_rejects_bad_rate():
    with pytest.raises(ValueError):
        make_config(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        make_config(mutation_rate=1.1)


# ------------------------------------------------------------- fluctuation

def test_fluctuation_uniform_population():
    pop = Population(np.zeros((4, 1, 3), dtype=np.int64), np.full(4, 0.7))
    assert ga.fitness_fluctuation(pop.fitness, pop.fitness.mean()) == 0.0


def test_fluctuation_extreme_split():
    pop = Population(np.zeros((2, 1, 3), dtype=np.int64), np.array([1.0, 0.0]))
    assert ga.fitness_fluctuation(pop.fitness, pop.fitness.mean()) == 0.5


def test_fluctuation_bounded():
    rng = np.random.default_rng(6)
    for _ in range(100):
        f = rng.uniform(0, 1, size=rng.integers(2, 30))
        pop = Population(np.zeros((f.size, 1, 3), dtype=np.int64), f)
        assert 0.0 <= ga.fitness_fluctuation(pop.fitness, pop.fitness.mean()) <= 0.5


# ---------------------------------------------------------------- evaluate

def test_evaluate_sorts_descending():
    pop = ga.evaluate(random_codes(30, seed=9), TASK, CODEC)
    assert np.all(np.diff(pop.fitness) <= 0)
    assert np.all((pop.fitness >= 0) & (pop.fitness <= 1))


def test_evaluate_scores_known_genomes():
    p_h = (np.pi / 2) * np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    near_h = np.stack([genome.encode_nearest(p_h, CODEC)] * 2)
    near_id = np.stack([genome.encode_nearest(np.zeros(3), CODEC)] * 2)
    pop = ga.evaluate(np.stack([near_id, near_h]), TASK, CODEC)
    bound = genome.rounding_error_bound(CODEC, TASK)
    assert pop.fitness[0] >= 1.0 - bound  # near-perfect solution ranks first
    assert abs(pop.fitness[1] - 0.5) <= 1e-3  # near-identity cannot see balance


# --------------------------------------------------------- next generation

def test_next_generation_full_elitism_copies_population():
    cfg = make_config(n_pop=12, elitism=12)
    pop = ga.evaluate(random_codes(12, seed=4), TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, draws(cfg, 0))
    assert np.array_equal(nxt.genomes, pop.genomes)
    assert np.array_equal(nxt.fitness, pop.fitness)


@pytest.mark.parametrize("n_pop", [5, 8])
def test_next_generation_size(n_pop):
    cfg = make_config(n_pop=n_pop)
    pop = ga.evaluate(random_codes(n_pop, seed=1), TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, draws(cfg, 5))
    assert len(nxt.genomes) == n_pop


def test_next_generation_homogeneous_fixed_point():
    g = np.random.default_rng(10).integers(0, 2, size=(1, 2, 3, 15), dtype=np.uint8)
    genomes = genome.pack(np.repeat(g, 6, axis=0))
    cfg = make_config(n_pop=6)
    pop = ga.evaluate(genomes, TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, draws(cfg, 2))
    assert np.array_equal(nxt.genomes, pop.genomes)


def test_elitism_makes_best_fitness_monotone():
    cfg = make_config(n_pop=10, elitism=1, threshold=1e-9, max_generations=30)
    record = ga.run(cfg, TASK, seed=3)
    assert np.all(np.diff(record.best_fitness_series) >= 0)


# --------------------------------------------------------------------- run

def test_run_is_deterministic():
    cfg = make_config(n_pop=15, max_generations=40)
    a = ga.run(cfg, TASK, seed=11)
    b = ga.run(cfg, TASK, seed=11)
    assert a.q_c == b.q_c
    assert a.termination_reason == b.termination_reason
    assert np.array_equal(a.mean_fitness, b.mean_fitness)
    assert np.array_equal(a.fluctuation, b.fluctuation)
    assert np.array_equal(a.best_fitness_series, b.best_fitness_series)
    assert np.array_equal(a.best_genome, b.best_genome)
    assert a.best_fitness == b.best_fitness
    assert a.epsilon_opt == b.epsilon_opt


def test_run_huge_threshold_stops_immediately():
    # the fluctuation never exceeds 0.5, so h = 1 stops at generation 1
    cfg = make_config(n_pop=10, threshold=1.0)
    record = ga.run(cfg, TASK, seed=0)
    assert record.q_c == 1
    assert record.termination_reason == "converged"
    assert len(record.mean_fitness) == 1


def test_run_generation_cap():
    cfg = make_config(n_pop=6, threshold=1e-12, max_generations=4)
    record = ga.run(cfg, TASK, seed=1)
    assert record.termination_reason in ("generation-cap", "converged")
    assert record.q_c <= 4
    if record.termination_reason == "generation-cap":
        assert record.q_c == 4


def test_run_series_are_bounded():
    cfg = make_config(n_pop=25, max_generations=80)
    record = ga.run(cfg, TASK, seed=7)
    assert record.q_c == len(record.mean_fitness) == len(record.fluctuation)
    assert np.all((record.mean_fitness >= 0) & (record.mean_fitness <= 1))
    assert np.all((record.fluctuation >= 0) & (record.fluctuation <= 0.5))
    assert 0.0 <= record.epsilon_opt <= 1.0
    assert record.best_fitness == record.best_fitness_series[-1]
    # the record carries the codes, (slots, components) int64, in an array of
    # its own: a view would keep the whole final population alive
    assert record.best_genome.dtype == np.int64 and record.best_genome.shape == (2, 3)
    assert record.best_genome.base is None


def test_run_deutsch_terminates_quickly():
    cfg = make_config(n_pop=100, max_generations=300)
    for seed in (1, 2, 3):
        record = ga.run(cfg, TASK, seed=seed)
        assert record.termination_reason == "converged"
        assert record.q_c <= 60


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(n_pop=1)
    with pytest.raises(ValueError):
        make_config(threshold=0.0)
    with pytest.raises(ValueError):
        make_config(mutation_rate=1.5)
    with pytest.raises(ValueError):
        make_config(elitism=25)
    with pytest.raises(ValueError):
        make_config(max_generations=0)
