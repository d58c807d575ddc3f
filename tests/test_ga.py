import copy
import math

import numpy as np
import pytest

from evogate import ga, genome, tasks
from evogate.ga import GAConfig, Population, RngStreams
from evogate.genome import CodecConfig

CODEC = CodecConfig(depth=15)
TASK = tasks.deutsch_task()


def make_config(n_pop=20, **kw):
    defaults = dict(n_pop=n_pop, threshold=1e-4, codec=CODEC)
    defaults.update(kw)
    return GAConfig(**defaults)


def random_codes(n_pop, seed=0):
    rng = np.random.default_rng(seed)
    return genome.pack(rng.integers(0, 2, size=(n_pop, 2, 3, 15), dtype=np.uint8))


# ---------------------------------------------------------------- selection

def test_selection_probabilities_two_individuals():
    p = ga.selection_probabilities(2)
    assert p[0] == 2.0 / 3.0
    assert p[1] == 1.0 / 3.0


def test_selection_rank_identity_exact():
    for n in range(2, 401):
        p = ga.selection_probabilities(n)
        assert p[-1] == p[0] / n


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
    fitness = tasks.population_fitness(TASK, genome.decode(bits, CODEC))
    order = np.argsort(-fitness, kind="stable")
    return bits[order], fitness[order]


@pytest.mark.parametrize("n_pop", [2, 3, 10, 100, 401])
def test_select_parents_matches_per_pair_reference(n_pop):
    probs = ga.selection_probabilities(n_pop)
    for n_pairs in (0, 1, 2, 5, 37, 200):
        rng, ref_rng = np.random.default_rng(n_pop), np.random.default_rng(n_pop)
        for _ in range(3):
            pairs = ga.select_parents(n_pop, n_pairs, rng)
            assert pairs.tolist() == [list(p) for p in _reference_pairs(probs, n_pairs, ref_rng)]
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_pop", [2, 3, 10, 11])
@pytest.mark.parametrize("mutation_rate", [0.0, 0.01, 1.0])
def test_next_generation_matches_per_pair_reference(n_pop, mutation_rate):
    for elitism in sorted({0, 1, n_pop - 1, n_pop}):
        cfg = make_config(n_pop=n_pop, mutation_rate=mutation_rate, elitism=elitism)
        pop = ga.evaluate(random_codes(n_pop, seed=n_pop + elitism), TASK, CODEC)
        streams, ref = RngStreams.from_seed(elitism), RngStreams.from_seed(elitism)
        for _ in range(4):
            nxt = ga.next_generation(pop, cfg, TASK, streams)
            bits = genome.unpack(pop.genomes, CODEC.depth)
            want_bits, want_fitness = _reference_evaluate(_reference_generation(bits, cfg, ref))
            assert np.array_equal(genome.unpack(nxt.genomes, CODEC.depth), want_bits)
            assert np.array_equal(nxt.fitness, want_fitness)
            for label in ga.STREAM_LABELS:
                assert (getattr(streams, label).bit_generator.state
                        == getattr(ref, label).bit_generator.state)
            pop = nxt


# ------------------------------------------------------- crossover, mutation

def _bred(genomes, cfg, seed, monkeypatch):
    """Children's bits of one generation in breeding order (pair-major, kid a
    first), bred from the given bits."""
    monkeypatch.setattr(ga, "evaluate",
                        lambda codes, task, codec: Population(codes, np.zeros(len(codes))))
    streams = RngStreams.from_seed(seed)
    pairs = ga.select_parents(cfg.n_pop, (cfg.n_pop + 1) // 2, copy.deepcopy(streams.selection))
    pop = Population(genome.pack(genomes), np.zeros(len(genomes)))
    nxt = ga.next_generation(pop, cfg, TASK, streams)
    return genome.unpack(nxt.genomes, cfg.codec.depth), pairs, streams


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
    ga.next_generation(pop, cfg, TASK, streams)
    assert streams.mutation.bit_generator.state == before


def test_mutate_full_rate_is_complement():
    g = np.random.default_rng(1).integers(0, 2, size=(1, 2, 3, 15), dtype=np.uint8)
    cfg = make_config(n_pop=6, mutation_rate=1.0)
    pop = ga.evaluate(genome.pack(np.repeat(g, 6, axis=0)), TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, RngStreams.from_seed(2))
    assert np.array_equal(genome.unpack(nxt.genomes, CODEC.depth), np.repeat(1 - g, 6, axis=0))


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
    assert ga.fitness_fluctuation(pop) == 0.0


def test_fluctuation_extreme_split():
    pop = Population(np.zeros((2, 1, 3), dtype=np.int64), np.array([1.0, 0.0]))
    assert ga.fitness_fluctuation(pop) == 0.5


def test_fluctuation_bounded():
    rng = np.random.default_rng(6)
    for _ in range(100):
        f = rng.uniform(0, 1, size=rng.integers(2, 30))
        pop = Population(np.zeros((f.size, 1, 3), dtype=np.int64), f)
        assert 0.0 <= ga.fitness_fluctuation(pop) <= 0.5


# ---------------------------------------------------------------- evaluate

def test_evaluate_sorts_descending():
    pop = ga.evaluate(random_codes(30, seed=9), TASK, CODEC)
    assert np.all(np.diff(pop.fitness) <= 0)
    assert np.all((pop.fitness >= 0) & (pop.fitness <= 1))


def test_evaluate_scores_known_genomes():
    p_h = (np.pi / 2) * np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    near_h = np.stack([genome.encode_nearest(p_h, CODEC)] * 2)
    near_id = np.stack([genome.encode_nearest(np.zeros(3), CODEC)] * 2)
    pop = ga.evaluate(genome.pack(np.stack([near_id, near_h])), TASK, CODEC)
    bound = genome.rounding_error_bound(CODEC, TASK)
    assert pop.fitness[0] >= 1.0 - bound  # near-perfect solution ranks first
    assert abs(pop.fitness[1] - 0.5) <= 1e-3  # near-identity cannot see balance


# --------------------------------------------------------- next generation

def test_next_generation_full_elitism_copies_population():
    cfg = make_config(n_pop=12, elitism=12)
    pop = ga.evaluate(random_codes(12, seed=4), TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, RngStreams.from_seed(0))
    assert np.array_equal(nxt.genomes, pop.genomes)
    assert np.array_equal(nxt.fitness, pop.fitness)


@pytest.mark.parametrize("n_pop", [5, 8])
def test_next_generation_size(n_pop):
    cfg = make_config(n_pop=n_pop)
    pop = ga.evaluate(random_codes(n_pop, seed=1), TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, RngStreams.from_seed(5))
    assert len(nxt.genomes) == n_pop


def test_next_generation_homogeneous_fixed_point():
    g = np.random.default_rng(10).integers(0, 2, size=(1, 2, 3, 15), dtype=np.uint8)
    genomes = genome.pack(np.repeat(g, 6, axis=0))
    cfg = make_config(n_pop=6)
    pop = ga.evaluate(genomes, TASK, CODEC)
    nxt = ga.next_generation(pop, cfg, TASK, RngStreams.from_seed(2))
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
    # the record carries bits, not codes: (slots, components, depth) uint8
    assert record.best_genome.dtype == np.uint8 and record.best_genome.shape == (2, 3, 15)


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
