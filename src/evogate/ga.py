"""Generational genetic algorithm over binary genomes.

A population is a single int64 array of shape ``(n_pop, n_slots,
n_components)``, the last two fixed by the task: each chromosome is carried
as its integer code, the ``L`` genes read as an unsigned ``L``-bit integer
with gene 1 the most significant bit.  Genes exist as bits only where they
are drawn: the init draw and the mutation flips are packed into codes
(:func:`evogate.genome.pack`).  Fitness evaluation vectorizes across all
candidates.  Randomness comes from four named PCG64 streams derived from the
run seed (population init, parent selection, crossover cut points,
mutation), which makes every run a pure function of (config, task, seed).

Each draw is converted from its stream's 64-bit words in one section below,
as README "Determinism and randomness" states; ``tests/test_contract_port.py``
checks that with a scalar port.  A run reads its breeding draws ahead from
one :func:`_breeding` generator, ``BLOCK_GENERATIONS`` generations per block
on each stream, with the values and order of one-generation reads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

import numpy as np
# numpy loads numpy.random lazily; importing it here puts the load in the CLI
# parent, which forked pool workers share, not in each worker's first run
from numpy.random import PCG64, SeedSequence

from . import genome as genome_mod
from .genome import CodecConfig
from .tasks import TaskSpec, population_fitness

__all__ = [
    "GAConfig",
    "Population",
    "RngStreams",
    "RunRecord",
    "evaluate",
    "fitness_fluctuation",
    "next_generation",
    "run",
    "selection_probabilities",
]

TERMINATED_CONVERGED = "converged"
TERMINATED_CAP = "generation-cap"

# generations of breeding draws that each stream gives per block read
BLOCK_GENERATIONS = 8


@dataclass(frozen=True)
class RngStreams:
    """The four labeled random streams of one run, as PCG64 bit generators."""

    init: PCG64
    selection: PCG64
    crossover: PCG64
    mutation: PCG64

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        return cls(*(PCG64(SeedSequence(seed, spawn_key=(k,))) for k in range(4)))


@dataclass(frozen=True)
class GAConfig:
    """Search settings.  ``codec`` fixes the chromosome depth and grid; the
    task fixes how many chromosomes a genome has."""

    n_pop: int
    threshold: float
    codec: CodecConfig
    mutation_rate: float = 0.0
    elitism: int = 0
    max_generations: int = 500

    def __post_init__(self):
        if self.n_pop < 2:
            raise ValueError(f"population size must be >= 2, got {self.n_pop}")
        if not self.threshold > 0:
            raise ValueError(f"termination threshold must be positive, got {self.threshold}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation rate must be in [0, 1], got {self.mutation_rate}")
        if not 0 <= self.elitism <= self.n_pop:
            raise ValueError(f"elitism must be in [0, n_pop], got {self.elitism}")
        if self.max_generations < 1:
            raise ValueError(f"max_generations must be >= 1, got {self.max_generations}")


@dataclass(frozen=True)
class Population:
    """Two arrays sorted by descending fitness (see :func:`evaluate`): the
    integer-coded genome stack ``(n_pop, slots, components)`` and its
    fitness ``(n_pop,)``.  The best individual is ``genomes[0]``."""

    genomes: np.ndarray
    fitness: np.ndarray


@dataclass
class RunRecord:
    """Telemetry of one run.

    Per-generation series all have length ``q_c``; ``best_genome`` and the
    derived ``best_fitness``/``epsilon_opt`` describe the top individual of
    the final generation, i.e. the solution the run hands back.
    ``best_genome`` holds its int64 codes, ``(slots, components)``.
    """

    seed: int
    mean_fitness: np.ndarray
    fluctuation: np.ndarray
    best_fitness_series: np.ndarray
    q_c: int
    termination_reason: str
    best_genome: np.ndarray
    best_fitness: float
    epsilon_opt: float


def selection_probabilities(n_pop: int) -> np.ndarray:
    """Rank-selection distribution: weight n_pop**(-(n-1)/(n_pop-1)) for rank n.

    Strictly decreasing, normalized to one, and the worst rank's probability
    is exactly the best rank's divided by ``n_pop``.  The weights come from
    libm's ``pow`` (``math.pow``), whose bits, unlike numpy's float64
    ``power``, do not depend on the CPU's SIMD level.
    """
    if n_pop < 2:
        raise ValueError(f"rank selection needs n_pop >= 2, got {n_pop}")
    w = np.array([math.pow(n_pop, -r / (n_pop - 1)) for r in range(n_pop)])
    p = w / w.sum()
    p[-1] = p[0] / n_pop  # pin the exact tail identity against libm rounding
    return p


@lru_cache(maxsize=None)
def _segment_masks(depth: int) -> np.ndarray:
    """Read-only int64 swap masks of every cut pair 1 <= s <= e <= depth, in
    lexicographic order: genes s..e set, gene 1 the most significant bit."""
    table = np.array([((1 << (e - s + 1)) - 1) << (depth - e)
                      for s in range(1, depth + 1) for e in range(s, depth + 1)],
                     dtype=np.int64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _rank_bounds(n_pop: int) -> np.ndarray:
    """``cumsum(selection_probabilities(n_pop))`` with the last entry +inf.

    ``searchsorted(bounds, u, "right")`` is then the rank of a double ``u``
    in [0, 1): the infinite last bound sends a ``u`` at or past the rounded
    total to the last rank, as clamping to ``n_pop - 1`` would.  Cached and
    read-only.
    """
    bounds = np.cumsum(selection_probabilities(n_pop))
    bounds[-1] = np.inf
    bounds.flags.writeable = False
    return bounds


def _walk_pairs(n_pairs: int, ranks: Iterable[int]) -> np.ndarray:
    """Ranks of ``n_pairs`` parent pairs, shape ``(n_pairs, 2)``, from
    ``ranks`` in order: each pending first rank pairs with the next rank
    that differs from it.  No rank past the last pair is taken."""
    flat = []  # ranks of the pairs made so far, first and second alternating
    first = None
    for rank in ranks if n_pairs else ():
        if first is None:
            first = rank
        elif rank != first:
            flat += (first, rank)
            if len(flat) == 2 * n_pairs:
                break
            first = None
    return np.array(flat, dtype=np.intp).reshape(n_pairs, 2)


# ---------------------------------------------------------- words to draws
# each draw, from its stream's 64-bit words (README "Determinism and randomness")

def _bits(stream: PCG64, shape: tuple[int, ...]) -> np.ndarray:
    """uint8 genes of ``shape``: the top bit of each byte of the words, low byte first."""
    words = np.asarray(stream.random_raw(-(-math.prod(shape) // 8)), "<u8")
    return (words.view(np.uint8)[:math.prod(shape)] >> 7).reshape(shape)


def _ranks(stream: PCG64, n_pop: int, block: int) -> Iterator[int]:
    """The stream's ranks in draw order, read ``block`` words at a time, each
    word's top 53 bits times 2**-53 ranked by its bound; a block of 0 ends them."""
    def read():
        doubles = (stream.random_raw(block) >> 11) * 2.0**-53
        return np.searchsorted(_rank_bounds(n_pop), doubles, side="right").tolist()

    return chain.from_iterable(iter(read, []))


def _flip_bound(rate: float) -> np.uint64:
    """The largest word whose double is below ``rate``, 0 < rate <= 1."""
    return np.uint64(((math.ceil(rate * 2**53) - 1) << 11) | 0x7FF)


def _below(stream: PCG64, n: int, shape: tuple[int, ...], spare: np.ndarray):
    """int64 values in [0, n) of ``shape``, n < 2**32, and the 32-bit half left over:
    Lemire's bounded draw on ``spare``, the half the last call left, then on
    the words' halves, low half first.  Half ``x`` gives ``x * n >> 32`` unless
    ``x * n mod 2**32 < (2**32 - n) % n`` rejects it; n == 1 draws nothing."""
    count = math.prod(shape)
    if n == 1:
        return np.zeros(shape, np.int64), spare
    words = np.asarray(stream.random_raw((count - len(spare) + 1) // 2), "<u8")
    halves = np.concatenate([spare, words.view("<u4")])
    m = halves[:count].astype(np.uint64) * n
    rejected = np.flatnonzero(m.astype(np.uint32) < (2**32 - n) % n)
    values = (m >> 32).view(np.int64)
    if len(rejected):  # rare: their replacements come from the halves after these
        more, spare = _below(stream, n, (len(rejected),), halves[count:])
        return np.concatenate([np.delete(values, rejected), more]).reshape(shape), spare
    return values.reshape(shape), halves[count:]


def _breeding(streams: RngStreams, cfg: GAConfig, genome_shape: tuple[int, int]):
    """Yield the breeding draws of the ``max_generations - 1`` generations a
    run can breed, genomes ``(S, C)`` = ``genome_shape``: parent ranks
    ``(P, 2)``, ``P`` the pairs bred, swap masks ``(P, S, C)`` and packed
    flips ``(P, 2, S, C)``, or None at a zero rate.

    Each stream is read ``BLOCK_GENERATIONS`` generations per block, and each
    generation takes the next values in draw order, so it reads the values
    README "Determinism and randomness" gives it.  The rank pool reads
    ``2 * P`` doubles per generation, its next block early on redraws;
    crossover and mutation read nothing past the generation cap.
    """
    masks = _segment_masks(cfg.codec.depth)
    n_pairs = (cfg.n_pop - cfg.elitism + 1) // 2
    shape = (n_pairs, *genome_shape)
    # with no pairs to breed (elitism == n_pop) a block is empty and the walk takes nothing
    ranks = _ranks(streams.selection, cfg.n_pop,
                   2 * n_pairs * min(BLOCK_GENERATIONS, max(cfg.max_generations - 1, 1)))
    bound = _flip_bound(cfg.mutation_rate) if cfg.mutation_rate > 0 else None
    spare = np.empty(0, np.uint32)  # the crossover half a block leaves, for the next
    for bred in range(0, cfg.max_generations - 1, BLOCK_GENERATIONS):
        g = min(BLOCK_GENERATIONS, cfg.max_generations - 1 - bred)
        picks, spare = _below(streams.crossover, len(masks), (g, *shape), spare)
        flips = repeat(None)  # a zero rate draws nothing
        if bound is not None:
            words = streams.mutation.random_raw((g, n_pairs, 2, *genome_shape, cfg.codec.depth))
            flips = genome_mod.pack(words <= bound)
        for swaps, flip in zip(masks.take(picks), flips):
            yield _walk_pairs(n_pairs, ranks), swaps, flip


def fitness_fluctuation(fitness: np.ndarray, mean: float) -> float:
    """Population standard deviation of ``fitness`` given its ``mean`` (the
    termination statistic)."""
    var = float(np.add.reduce(fitness * fitness) / len(fitness) - mean * mean)
    return math.sqrt(max(var, 0.0))  # radicand can dip ~-1e-16 in floats


def evaluate(codes: np.ndarray, task: TaskSpec, codec: CodecConfig) -> Population:
    """Score every genome of a code stack and sort descending (stable, so
    ties keep order)."""
    fitness = population_fitness(task, genome_mod.decode(codes, codec))
    order = np.argsort(-fitness, kind="stable")
    return Population(codes.take(order, axis=0), fitness.take(order))


def next_generation(pop: Population, cfg: GAConfig, task: TaskSpec,
                    draws: Iterator[tuple]) -> Population:
    """Breed, score, and sort the successor population.

    The top ``elitism`` individuals are copied unchanged.  The other
    ``n_pop - elitism`` slots are bred in one step over all pairs: select
    two distinct parents per pair, swap one uniformly chosen contiguous gene
    segment per chromosome (so each pair yields kids a and b that conserve
    the parents' genes position by position), flip each gene with
    probability ``mutation_rate``.  Children go pair-major, kid a before
    kid b; an odd count discards the last kid b.  The parent ranks, swap
    masks and flips are the next item of ``draws`` (:func:`_breeding`); README
    "Determinism and randomness" gives the words they come from and how
    they act on the codes.
    """
    parents, masks, flips = next(draws)
    codes = pop.genomes
    kids = codes.take(parents, axis=0)  # (n_pairs, 2, slots, components)
    # swapping a segment flips both kids wherever the parents differ inside it
    swap = kids[:, 0] ^ kids[:, 1]
    swap &= masks
    kids ^= swap[:, None]
    if flips is not None:
        kids ^= flips
    kids = kids.reshape(-1, *codes.shape[1:])[: cfg.n_pop - cfg.elitism]
    genomes = np.concatenate([codes[: cfg.elitism], kids]) if cfg.elitism else kids
    return evaluate(genomes, task, cfg.codec)


def run(cfg: GAConfig, task: TaskSpec, seed: int) -> RunRecord:
    """One full search: random population, evolve until the fitness spread
    drops below the threshold or all fitnesses are equal (both converged),
    or until the generation cap.

    Deterministic in (cfg, task, seed); a cap stop is a valid outcome, not an
    error.  Generation indices are 1-based and ``q_c`` counts evaluated
    generations, so the initial random population is generation 1.  The
    initial genomes, ``(n_pop, task.n_slots, task.n_components, depth)``
    genes of the init stream, are packed once into codes.  Breeding reads
    the other three streams through one :func:`_breeding` generator.
    """
    streams = RngStreams.from_seed(seed)
    bits = _bits(streams.init, (cfg.n_pop, task.n_slots, task.n_components, cfg.codec.depth))
    pop = evaluate(genome_mod.pack(bits), task, cfg.codec)
    draws = _breeding(streams, cfg, (task.n_slots, task.n_components))

    means, flucts, bests = [], [], []
    while True:
        fitness = pop.fitness
        mean = float(np.add.reduce(fitness) / len(fitness))
        spread = fitness_fluctuation(fitness, mean)
        means.append(mean)
        flucts.append(spread)
        bests.append(float(fitness[0]))
        if spread < cfg.threshold or fitness[0] == fitness[-1]:  # sorted: all equal
            reason = TERMINATED_CONVERGED
            break
        if len(means) >= cfg.max_generations:
            reason = TERMINATED_CAP
            break
        pop = next_generation(pop, cfg, task, draws)

    return RunRecord(
        seed=seed,
        mean_fitness=np.array(means),
        fluctuation=np.array(flucts),
        best_fitness_series=np.array(bests),
        q_c=len(means),
        termination_reason=reason,
        best_genome=pop.genomes[0].copy(),  # a view would pin the whole population
        best_fitness=bests[-1],
        epsilon_opt=1.0 - bests[-1],
    )
