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

The draws each step makes, in order, and how they act on the codes are
stated in README "Determinism and randomness", which
``tests/test_contract_port.py`` checks with a scalar port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy loads numpy.random lazily; importing it here puts the load in the CLI
# parent, which forked pool workers share, not in each worker's first run
from numpy.random import PCG64, Generator, SeedSequence

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
    "select_parents",
    "selection_probabilities",
]

STREAM_LABELS = ("init", "selection", "crossover", "mutation")

TERMINATED_CONVERGED = "converged"
TERMINATED_CAP = "generation-cap"


@dataclass(frozen=True)
class RngStreams:
    """The four labeled random streams of one run."""

    init: Generator
    selection: Generator
    crossover: Generator
    mutation: Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        # stream k uses PCG64 seeded by SeedSequence(seed, spawn_key=(k,)),
        # k following STREAM_LABELS order; ports must match this derivation
        gens = [
            Generator(PCG64(SeedSequence(seed, spawn_key=(k,))))
            for k in range(len(STREAM_LABELS))
        ]
        return cls(*gens)


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


def select_parents(n_pop: int, n_pairs: int, rng: Generator) -> np.ndarray:
    """Ranks of ``n_pairs`` parent pairs under rank selection, shape ``(n_pairs, 2)``.

    Each pair is a first rank and a second rank redrawn until it differs
    from the first, one double per rank draw.  Draws come in blocks of the
    fewest doubles the remaining pairs still need, so the stream ends where
    drawing the ranks one at a time would leave it.  Each block is walked
    once.
    """
    bounds, need = _rank_bounds(n_pop), 2 * n_pairs
    flat = []  # ranks of the pairs made so far, first and second alternating
    first = None
    while need:
        for rank in np.searchsorted(bounds, rng.random(need), side="right").tolist():
            if first is None:
                first = rank
            elif rank != first:
                flat += (first, rank)
                first = None
        need = 2 * n_pairs - len(flat) - (first is not None)
    return np.array(flat, dtype=np.intp).reshape(n_pairs, 2)


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
                    streams: RngStreams) -> Population:
    """Breed, score, and sort the successor population.

    The top ``elitism`` individuals are copied unchanged.  The other
    ``n_pop - elitism`` slots are bred in one step over all pairs: select
    two distinct parents per pair, swap one uniformly chosen contiguous gene
    segment per chromosome (so each pair yields kids a and b that conserve
    the parents' genes position by position), flip each gene with
    probability ``mutation_rate``.  Children go pair-major, kid a before
    kid b; an odd count discards the last kid b.  README "Determinism
    and randomness" gives the draws and how they act on the codes.
    """
    codes = pop.genomes
    n_bred = cfg.n_pop - cfg.elitism
    n_pairs = (n_bred + 1) // 2
    parents = select_parents(cfg.n_pop, n_pairs, streams.selection)
    masks = _segment_masks(cfg.codec.depth)
    picks = streams.crossover.integers(0, len(masks), size=(n_pairs, *codes.shape[1:]))
    kids = codes.take(parents, axis=0)  # (n_pairs, 2, slots, components)
    # swapping a segment flips both kids wherever the parents differ inside it
    swap = kids[:, 0] ^ kids[:, 1]
    swap &= masks.take(picks)
    kids ^= swap[:, None]
    if cfg.mutation_rate > 0:
        flips = streams.mutation.random((*kids.shape, cfg.codec.depth)) < cfg.mutation_rate
        kids ^= genome_mod.pack(flips)
    kids = kids.reshape(2 * n_pairs, *codes.shape[1:])[:n_bred]
    genomes = np.concatenate([codes[: cfg.elitism], kids]) if cfg.elitism else kids
    return evaluate(genomes, task, cfg.codec)


def run(cfg: GAConfig, task: TaskSpec, seed: int) -> RunRecord:
    """One full search: random population, evolve until the fitness spread
    drops below the threshold or all fitnesses are equal (both converged),
    or until the generation cap.

    Deterministic in (cfg, task, seed); a cap stop is a valid outcome, not an
    error.  Generation indices are 1-based and ``q_c`` counts evaluated
    generations, so the initial random population is generation 1.  The
    initial genomes are one uint8 draw of shape (n_pop, task.n_slots,
    task.n_components, depth) from the init stream, fixed here so ports can
    match run for run, packed once into codes.
    """
    streams = RngStreams.from_seed(seed)
    bits = streams.init.integers(
        0, 2, size=(cfg.n_pop, task.n_slots, task.n_components, cfg.codec.depth),
        dtype=np.uint8,
    )
    pop = evaluate(genome_mod.pack(bits), task, cfg.codec)

    means, flucts, bests = [], [], []
    generation = 0
    while True:
        generation += 1
        fitness = pop.fitness
        mean = float(np.add.reduce(fitness) / len(fitness))
        spread = fitness_fluctuation(fitness, mean)
        means.append(mean)
        flucts.append(spread)
        bests.append(float(fitness[0]))
        if spread < cfg.threshold or fitness[0] == fitness[-1]:  # sorted: all equal
            reason = TERMINATED_CONVERGED
            break
        if generation >= cfg.max_generations:
            reason = TERMINATED_CAP
            break
        pop = next_generation(pop, cfg, task, streams)

    best = bests[-1]
    return RunRecord(
        seed=seed,
        mean_fitness=np.array(means),
        fluctuation=np.array(flucts),
        best_fitness_series=np.array(bests),
        q_c=generation,
        termination_reason=reason,
        best_genome=pop.genomes[0].copy(),  # a view would pin the whole population
        best_fitness=best,
        epsilon_opt=1.0 - best,
    )
