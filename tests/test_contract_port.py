"""A second implementation of the draw and fitness contract, checked against
``ga.run``.

The search below is written from README "Determinism and randomness" alone
and shares no code with evogate: it seeds and steps PCG64 in pure Python
integers and converts its words one draw at a time, reads each task as the
plain data of its task file, holds each chromosome as a list of 0/1 genes,
crosses over by cut pair ``(s, e)``, flips gene by gene and scores one
candidate at a time in pure Python floats.  It must match ``ga.run`` record
for record, bit for bit.  A mismatch is a bug in the contract text or in the
code.  Only the seeding test imports numpy's generators, as its reference.
"""

import math
import sys
from bisect import bisect_right
from itertools import product

import numpy as np
import pytest

from evogate import ga, tasks
from evogate.genome import CodecConfig
from test_golden import GENERAL_TASK

# each d = 2 task as the data of its task file: complex numbers as [re, im] pairs
TASKS = {"deutsch": tasks.task_to_dict(tasks.deutsch_task()), "general": GENERAL_TASK}
GENERATIONS = 3
THRESHOLD = 1e-12  # low enough that almost every case breeds for all generations


MASK32, MASK64, MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(seed, spawn_key, n_words):
    """The first ``n_words`` 32-bit words of SeedSequence(seed, spawn_key):
    the 32-bit limbs of the seed, low limb first, padded with zeros to four
    when there is a spawn key, then those of each key, hash-mixed into a
    pool of four words, which are hashed out in turn."""
    def limbs(x):
        out = [x & MASK32]
        while x >> 32:
            x >>= 32
            out.append(x & MASK32)
        return out

    entropy = limbs(seed)
    if spawn_key:
        entropy += [0] * (4 - len(entropy))
    for k in spawn_key:
        entropy += limbs(k)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & MASK32
        value = value * mult & MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    mult, out = 0x8B51F9DD, []
    for i in range(n_words):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & MASK32
        value = value * mult & MASK32
        out.append(value ^ value >> 16)
    return out


class Stream:
    """PCG64 seeded by SeedSequence(seed, spawn_key), read one draw at a time."""

    def __init__(self, seed, spawn_key=()):
        w = seed_words(seed, spawn_key, 8)
        u = [w[2 * i] | w[2 * i + 1] << 32 for i in range(4)]  # four 64-bit words
        self.inc = (u[2] << 64 | u[3]) << 1 & MASK128 | 1
        self.state = 0
        self.word()
        self.state = (self.state + (u[0] << 64 | u[1])) & MASK128
        self.word()
        self.half = None  # the high half a 32-bit draw left over
        self.bytes = []  # the bytes of the last init word not yet read

    def word(self):
        """One step of the 128-bit LCG, then the XSL-RR output of the new state."""
        self.state = (self.state * PCG_MULT + self.inc) & MASK128
        x = (self.state >> 64 ^ self.state) & MASK64
        r = self.state >> 122
        return (x >> r | x << (64 - r)) & MASK64

    def gene(self):
        """An init gene: the top bit of the next byte of the words, low byte first."""
        if not self.bytes:
            w = self.word()
            self.bytes = [w >> 8 * j & 0xFF for j in range(8)]
        return self.bytes.pop(0) >> 7

    def double(self):
        """A double in [0, 1): the word's top 53 bits times 2**-53."""
        return (self.word() >> 11) * 2.0**-53

    def below(self, n):
        """A value in [0, n), n < 2**32: Lemire's bounded draw on 32-bit halves,
        the low half of a word first, its high half kept for the next draw.
        n == 1 draws nothing."""
        while n > 1:
            if self.half is None:
                w = self.word()
                x, self.half = w & MASK32, w >> 32
            else:
                x, self.half = self.half, None
            if x * n & MASK32 >= (2**32 - n) % n:
                return x * n >> 32
        return 0


def nested(shape, draw):
    """A nested list of ``shape`` filled with ``draw()`` in row-major order."""
    return [nested(shape[1:], draw) for _ in range(shape[0])] if shape else draw()


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
    return min(bisect_right(bounds, rng.double()), len(bounds) - 1)


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


def su2(p):
    """The closed-form rotation of ``p = (px, py, pz)`` as rows of (re, im)
    entries: ``T = sqrt((px*px + py*py) + pz*pz)``, ``f = sin(x)/x`` for
    ``x = pi*(T/pi)`` (epsilon when 0), and u00 = (cos T, 0 - f*pz), u01 =
    (-(f*py), 0 - f*px), u10 = (f*py, 0 - f*px), u11 = (cos T, 0 + f*pz)."""
    px, py, pz = p
    theta = math.sqrt((px * px + py * py) + pz * pz)
    x = math.pi * (theta / math.pi) or sys.float_info.epsilon
    f = math.sin(x) / x
    c = math.cos(theta)
    return [[(c, 0.0 - f * pz), (-(f * py), 0.0 - f * px)],
            [(f * py, 0.0 - f * px), (c, 0.0 + f * pz)]]


def dot(row, state):
    """sum_j row[j] * state[j]: each product (ar*br - ai*bi, ar*bi + ai*br),
    added in index order to a sum that starts at 0.0."""
    re = im = 0.0
    for (ar, ai), (br, bi) in zip(row, state):
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return re, im


def fitness(task, params):
    """Mean fidelity of one candidate of a d = 2 task: each pair's state walks
    the slots in order from the initial state, its amplitude on the
    conjugated target gives re*re + im*im, and the pairs' values are added
    in task order, then divided by their count."""
    us = [su2(p) for p in params]
    total = None
    for label, target in task["pairs"]:
        state = task["initial_state"]
        for slot in task["slots"]:
            if slot["kind"] == "trainable":
                m = us[slot["index"] - 1]
            else:
                m = task["oracle_families"][slot.get("family", "oracle")][label]
            state = [dot(row, state) for row in m]
        re, im = dot([(tr, -ti) for tr, ti in target], state)
        total = re * re + im * im if total is None else total + (re * re + im * im)
    return total / len(task["pairs"])


def score(task, genome, half_range):
    depth = len(genome[0][0])
    return fitness(task, [[half_range * (2 * code(ch) + 1 - 2**depth) / 2**depth
                           for ch in slot] for slot in genome])


def ranked(task, genomes, half_range):
    """(fitness, genome) pairs, fittest first; ties keep their order."""
    scored = [(score(task, g, half_range), g) for g in genomes]
    return sorted(scored, key=lambda fg: -fg[0])


def port_run(task, n_pop, depth, half_range, rate, elitism, seed,
             threshold=THRESHOLD, generations=GENERATIONS):
    init, selection, crossover, mutation = (Stream(seed, (k,)) for k in range(4))
    n_slots = sum(slot["kind"] == "trainable" for slot in task["slots"])
    n_comp = task["dim"] ** 2 - 1
    genomes = nested((n_pop, n_slots, n_comp, depth), init.gene)
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
        if spread < threshold or fitness[0] == fitness[-1]:
            reason = "converged"
            break
        if len(means) >= generations:
            reason = "generation-cap"
            break
        pairs = draw_pairs(selection, bounds, n_pairs)
        picks = nested((n_pairs, n_slots, n_comp), lambda: crossover.below(len(cuts)))
        flips = nested((n_pairs, 2, n_slots, n_comp, depth), mutation.double) if rate > 0 else None
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


def _assert_same(rec, port, case):
    means, spreads, bests, reason, best = port
    assert rec.q_c == len(means), case
    assert rec.termination_reason == reason, case
    assert _bits(rec.mean_fitness) == _bits(means), case
    assert _bits(rec.fluctuation) == _bits(spreads), case
    assert _bits(rec.best_fitness_series) == _bits(bests), case
    assert np.array_equal(rec.best_genome, best), case
    assert _bits(rec.best_fitness) == _bits(bests[-1]), case
    assert _bits(rec.epsilon_opt) == _bits(1.0 - bests[-1]), case


@pytest.mark.parametrize("task_name", sorted(TASKS))
@pytest.mark.parametrize("n_pop", [2, 3, 11, 101])
def test_port_matches_ga_run(task_name, n_pop):
    task = TASKS[task_name]
    spec = tasks.task_from_dict(task)
    seed = 0
    for depth in (1, 15, 52):
        codec = CodecConfig(depth=depth)
        for rate in (0.0, 1e-3, 1.0):
            for elitism in sorted({0, 1, n_pop - 1, n_pop}):
                seed += 1
                cfg = ga.GAConfig(n_pop=n_pop, threshold=THRESHOLD, codec=codec,
                                  mutation_rate=rate, elitism=elitism,
                                  max_generations=GENERATIONS)
                port = port_run(task, n_pop, depth, codec.half_range, rate, elitism, seed)
                _assert_same(ga.run(cfg, spec, seed), port, (depth, rate, elitism, seed))


@pytest.mark.parametrize("seed, collapsed_at", [(2, 37), (3, 35)])
def test_port_stops_where_the_population_collapses(seed, collapsed_at):
    # at h = 1e-8, below the spread's rounding floor, only the all-equal
    # rule stops these runs short of the 500-generation cap: the population
    # holds one fitness from generation q_c on, yet its spread reads >= h
    codec = CodecConfig(depth=15)
    cfg = ga.GAConfig(n_pop=100, threshold=1e-8, codec=codec, max_generations=500)
    port = port_run(TASKS["deutsch"], 100, 15, codec.half_range, 0.0, 0, seed,
                    threshold=1e-8, generations=500)
    means, spreads, _, reason, _ = port
    assert (len(means), reason) == (collapsed_at, "converged")
    assert spreads[-1] >= cfg.threshold
    _assert_same(ga.run(cfg, tasks.deutsch_task(), seed), port, seed)


@pytest.mark.parametrize("task_name", sorted(TASKS))
def test_scalar_fitness_matches_population_fitness(task_name):
    # 20,000 random candidates, then the grid points of depth 1 and the zero
    # vector, whose sin(x)/x takes the epsilon branch
    task = TASKS[task_name]
    spec = tasks.task_from_dict(task)
    rng = Stream(12)
    shape = (spec.n_slots, spec.n_components)
    grid = np.array(list(product([-np.pi / 2, np.pi / 2], repeat=math.prod(shape))))
    uniform = nested((20_000, *shape), lambda: 2 * math.pi * rng.double() - math.pi)
    params = np.concatenate([np.array(uniform),
                             grid.reshape((-1,) + shape), np.zeros((1,) + shape)])
    want = tasks.population_fitness(spec, params)
    got = np.array([fitness(task, p) for p in params.tolist()])
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n_pop", [2, 3, 11, 101])
def test_block_draws_leave_the_stream_where_single_draws_do(n_pop):
    # the run's walk takes no rank past its last pair, so over one-word
    # blocks its ranks and the stream state after them both match draws
    # made one at a time
    bounds = rank_bounds(n_pop)
    for seed in range(40):
        for n_pairs in (1, 2, (n_pop + 1) // 2):
            block, single = ga.RngStreams.from_seed(seed).selection, Stream(seed, (1,))
            ranks = ga._walk_pairs(n_pairs, ga._ranks(block, n_pop, 1))
            assert ranks.tolist() == [list(p) for p in draw_pairs(single, bounds, n_pairs)]
            assert block.state["state"]["state"] == single.state


# ranges whose bounded draw rejects about a quarter and about half of the halves
@pytest.mark.parametrize("n", [1, 3, 21, 120, 1378, 3 * 2**30, 2**31 + 5])
def test_bounded_draws_match_the_port(n):
    # successive calls of odd and even sizes carry the spare half between them
    for seed in range(4):
        stream, port = ga.RngStreams.from_seed(seed).crossover, Stream(seed, (2,))
        spare = np.empty(0, np.uint32)
        for size in (30, 7, 240, 13, 1):
            values, spare = ga._below(stream, n, (size,), spare)
            assert values.tolist() == [port.below(n) for _ in range(size)]
            assert stream.state["state"]["state"] == port.state
            assert spare.tolist() == ([] if port.half is None else [port.half])


class Words:
    """A stand-in stream whose words are given."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        drawn, self.words = self.words[:size], self.words[size:]
        return drawn


@pytest.mark.parametrize("n_pop", [2, 3, 11, 101])
def test_rank_draws_match_the_port_at_every_bound(n_pop):
    # the words on either side of each rank bound, where a double off by its
    # last bit would change the rank, and the lowest and highest words
    bounds = rank_bounds(n_pop)
    words = [0, MASK64]
    for b in bounds[:-1]:
        k = math.ceil(b * 2**53)  # the first 53-bit value whose double is not below b
        words += [k << 11, (k << 11) - 1]
    want = [min(bisect_right(bounds, (w >> 11) * 2.0**-53), n_pop - 1) for w in words]
    assert list(ga._ranks(Words(words), n_pop, len(words))) == want


@pytest.mark.parametrize("size", [12, 993, 9000])
def test_init_genes_match_the_port(size):
    for seed in range(20):
        stream, port = ga.RngStreams.from_seed(seed).init, Stream(seed, (0,))
        assert ga._bits(stream, (size,)).tolist() == [port.gene() for _ in range(size)]


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 1, 2**70 + 9])
def test_seeding_matches_numpy(seed):
    # numpy's SeedSequence and PCG64 are the reference here, and only here
    from numpy.random import PCG64, SeedSequence

    for spawn_key in [(), (0,), (1,), (2,), (3,)]:
        seq = SeedSequence(seed, spawn_key=spawn_key)
        assert seed_words(seed, spawn_key, 4) == seq.generate_state(4).tolist()
        port = Stream(seed, spawn_key)
        assert [port.word() for _ in range(50)] == PCG64(seq).random_raw(50).tolist()


def test_pairwise_sum_is_numpy_order():
    rng = Stream(0)
    for n in range(1, 600):
        x = [rng.double() * 10.0 ** (rng.below(10) - 5) for _ in range(n)]
        assert pairwise_sum(x) == float(np.add.reduce(np.array(x)))
