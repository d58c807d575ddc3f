"""A second implementation of the draw contract, checked against ``ga.run``.

The search below is written from README "Determinism and randomness" alone
and shares no code with ``evogate.ga`` or ``evogate.genome``: it draws one
selection double at a time, holds each chromosome as a list of 0/1 genes,
crosses over by cut pair ``(s, e)``, flips gene by gene and scores one
candidate at a time through ``tasks.population_fitness``.  It must match
``ga.run`` record for record, bit for bit.  A mismatch is a bug in the
contract text or in the code.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from evogate import ga, tasks
from evogate.genome import CodecConfig
from test_golden import GENERAL_TASK

TASKS = {"deutsch": tasks.deutsch_task(), "general": tasks.task_from_dict(GENERAL_TASK)}
GENERATIONS = 3
THRESHOLD = 1e-12  # low enough that almost every case breeds for all generations


def pairwise_sum(xs, lo=0, n=None):
    """A float sum in the order of numpy's pairwise ``np.add.reduce``: under
    8 terms one running sum from -0.0; up to 128, eight running sums over the
    terms in blocks of 8, joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the leftover terms added in turn; above 128, the sums of two halves
    split at a multiple of 8."""
    n = len(xs) if n is None else n
    if n < 8:
        total = -0.0
        for x in xs[lo:lo + n]:
            total += x
        return total
    if n <= 128:
        r = xs[lo:lo + 8]
        i = 8
        while i < n - n % 8:
            r = [r[j] + xs[lo + i + j] for j in range(8)]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[lo + i:lo + n]:
            total += x
        return total
    half = n // 2 - (n // 2) % 8
    return pairwise_sum(xs, lo, half) + pairwise_sum(xs, lo + half, n - half)


def rank_bounds(n_pop):
    """cumsum(p) of the rank-selection table p, as a running sum."""
    w = [math.pow(n_pop, -k / (n_pop - 1)) for k in range(n_pop)]
    total = pairwise_sum(w)
    p = [x / total for x in w]
    p[-1] = p[0] / n_pop
    bounds, acc = [], 0.0
    for x in p:
        acc += x
        bounds.append(acc)
    return bounds


def draw_rank(rng, bounds):
    return min(bisect_right(bounds, rng.random()), len(bounds) - 1)


def draw_pairs(rng, bounds, n_pairs):
    """Pair by pair: the first rank, then the second redrawn until it differs."""
    pairs = []
    for _ in range(n_pairs):
        first = draw_rank(rng, bounds)
        second = draw_rank(rng, bounds)
        while second == first:
            second = draw_rank(rng, bounds)
        pairs.append((first, second))
    return pairs


def code(genes):
    """The unsigned integer the genes read as, gene 1 the most significant."""
    u = 0
    for g in genes:
        u = 2 * u + g
    return u


def score(task, genome, half_range):
    depth = len(genome[0][0])
    params = [[half_range * (2 * code(ch) + 1 - 2**depth) / 2**depth for ch in slot]
              for slot in genome]
    return float(tasks.population_fitness(task, np.array(params)))


def ranked(task, genomes, half_range):
    """(fitness, genome) pairs, fittest first; ties keep their order."""
    scored = [(score(task, g, half_range), g) for g in genomes]
    return sorted(scored, key=lambda fg: -fg[0])


def port_run(task, n_pop, depth, half_range, rate, elitism, seed):
    init, selection, crossover, mutation = (
        Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))) for k in range(4))
    n_slots, n_comp = task.n_slots, task.n_components
    genomes = init.integers(0, 2, size=(n_pop, n_slots, n_comp, depth), dtype=np.uint8).tolist()
    pop = ranked(task, genomes, half_range)
    bounds = rank_bounds(n_pop)
    cuts = [(s, e) for s in range(1, depth + 1) for e in range(s, depth + 1)]
    n_bred = n_pop - elitism
    n_pairs = (n_bred + 1) // 2
    means, spreads, bests = [], [], []
    while True:
        fitness = [f for f, _ in pop]
        mean = pairwise_sum(fitness) / n_pop
        spread = math.sqrt(max(pairwise_sum([f * f for f in fitness]) / n_pop - mean * mean, 0.0))
        means.append(mean)
        spreads.append(spread)
        bests.append(fitness[0])
        if spread < THRESHOLD:
            reason = "converged"
            break
        if len(means) >= GENERATIONS:
            reason = "generation-cap"
            break
        pairs = draw_pairs(selection, bounds, n_pairs)
        picks = crossover.integers(0, len(cuts), size=(n_pairs, n_slots, n_comp)).tolist()
        flips = (mutation.random((n_pairs, 2, n_slots, n_comp, depth)).tolist()
                 if rate > 0 else None)
        kids = []
        for p, (first, second) in enumerate(pairs):
            a = [[list(ch) for ch in slot] for slot in pop[first][1]]
            b = [[list(ch) for ch in slot] for slot in pop[second][1]]
            for i in range(n_slots):
                for j in range(n_comp):
                    s, e = cuts[picks[p][i][j]]
                    a[i][j][s - 1:e], b[i][j][s - 1:e] = b[i][j][s - 1:e], a[i][j][s - 1:e]
            for k, kid in enumerate((a, b) if flips is not None else ()):
                for i in range(n_slots):
                    for j in range(n_comp):
                        for gene in range(depth):
                            if flips[p][k][i][j][gene] < rate:
                                kid[i][j][gene] ^= 1
            kids += [a, b]
        pop = ranked(task, [g for _, g in pop[:elitism]] + kids[:n_bred], half_range)
    best = [[code(ch) for ch in slot] for slot in pop[0][1]]
    return means, spreads, bests, reason, best


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("task_name", sorted(TASKS))
@pytest.mark.parametrize("n_pop", [2, 3, 11, 101])
def test_port_matches_ga_run(task_name, n_pop):
    task = TASKS[task_name]
    seed = 0
    for depth in (1, 15, 52):
        codec = CodecConfig(depth=depth)
        for rate in (0.0, 1e-3, 1.0):
            for elitism in sorted({0, 1, n_pop - 1, n_pop}):
                seed += 1
                cfg = ga.GAConfig(n_pop=n_pop, threshold=THRESHOLD, codec=codec,
                                  mutation_rate=rate, elitism=elitism,
                                  max_generations=GENERATIONS)
                rec = ga.run(cfg, task, seed)
                means, spreads, bests, reason, best = port_run(
                    task, n_pop, depth, codec.half_range, rate, elitism, seed)
                case = (depth, rate, elitism, seed)
                assert rec.q_c == len(means), case
                assert rec.termination_reason == reason, case
                assert _bits(rec.mean_fitness) == _bits(means), case
                assert _bits(rec.fluctuation) == _bits(spreads), case
                assert _bits(rec.best_fitness_series) == _bits(bests), case
                assert np.array_equal(rec.best_genome, best), case
                assert _bits(rec.best_fitness) == _bits(bests[-1]), case
                assert _bits(rec.epsilon_opt) == _bits(1.0 - bests[-1]), case


@pytest.mark.parametrize("n_pop", [2, 3, 11, 101])
def test_block_draws_leave_the_stream_where_single_draws_do(n_pop):
    # README: block draws end where one-at-a-time draws would, so the ranks
    # and the stream state after them must both agree
    bounds = rank_bounds(n_pop)
    for seed in range(40):
        for n_pairs in (1, 2, (n_pop + 1) // 2):
            block = Generator(PCG64(seed))
            single = Generator(PCG64(seed))
            ranks = ga.select_parents(n_pop, n_pairs, block)
            assert ranks.tolist() == [list(p) for p in draw_pairs(single, bounds, n_pairs)]
            assert block.bit_generator.state == single.bit_generator.state


def test_pairwise_sum_is_numpy_order():
    rng = np.random.default_rng(0)
    for n in range(1, 600):
        x = rng.random(n) * 10.0 ** rng.integers(-5, 5, n)
        assert pairwise_sum(x.tolist()) == float(np.add.reduce(x))
