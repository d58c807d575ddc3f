"""Span recorder for the traced benchmark pass.

The recorder wraps evogate's public functions from outside the package: each
wrapper is installed under every name that a module of the package binds to
the original function object, so callers that imported the function by name
(``ga.population_fitness``, ``tasks.su2_closed_form``, ``cli.ga_run``) are
traced too.  A function that no longer exists is skipped and listed in
``missing``.

Each span records its name, start, end, parent span and run id (the seed of
the enclosing ``ga.run``).  Self time is the span's duration minus the time
its child spans cover; it is accumulated online per span name, and the raw
spans are kept in memory (up to ``keep``) and written out by ``dump``.
"""

from __future__ import annotations

import json
import math
from array import array
from time import perf_counter_ns

import evogate
from evogate import analysis, cli, files, ga, genome, linalg, tasks

MODULES = (cli, ga, genome, linalg, tasks, analysis, files)


def _size(shape) -> int:
    return int(math.prod(shape))


def _count_decode(args, kwargs, result):
    return {"genome.genes_decoded": _size(getattr(args[0], "shape", ()))}


def _count_fitness(args, kwargs, result):
    return {"tasks.candidates": _size(result.shape)}


def _count_su2(args, kwargs, result):
    return {"linalg.unitaries": _size(result.shape[:-2])}


def _count_run(args, kwargs, result):
    return {"ga.runs": 1, "ga.generations": int(result.q_c)}


def _count_breed(args, kwargs, result):
    # bred children in the new population; the elite are copied, not bred
    kept = result.genomes.shape[0] - args[1].elitism
    return {"ga.children_kept": kept, "ga.pairs_needed": (kept + 1) // 2}


def _count_crossover(args, kwargs, result):
    return {"ga.pairs": 1, "ga.children_produced": len(result)}


def _count_fit(args, kwargs, result):
    return {"analysis.fit_iters": int(result.n_iter)}


def _count_write(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"files.bytes_written": len(text.encode("utf-8"))}


def _run_seed(args, kwargs):
    return kwargs["seed"] if "seed" in kwargs else args[2]


# (module, attribute or "Class.attribute", span name, counter)
TARGETS = (
    (cli, "run_many", "cli.run_many", None),
    (ga, "run", "ga.run", _count_run),
    (ga, "RngStreams.from_seed", "ga.streams", None),
    (ga, "next_generation", "ga.next_generation", _count_breed),
    (ga, "select_pair", "ga.select_pair", None),
    (ga, "crossover", "ga.crossover", _count_crossover),
    (ga, "mutate", "ga.mutate", None),
    (ga, "evaluate", "ga.evaluate", None),
    (ga, "fitness_fluctuation", "ga.fitness_fluctuation", None),
    (genome, "decode", "genome.decode", _count_decode),
    (tasks, "population_fitness", "tasks.population_fitness", _count_fitness),
    (linalg, "su2_closed_form", "linalg.su2_closed_form", _count_su2),
    (analysis, "ensemble_stats", "analysis.aggregate", None),
    (analysis, "mean_fitness_curves", "analysis.aggregate", None),
    (analysis, "prepared_state", "analysis.prepared_state", None),
    (analysis, "quantile_bins", "analysis.fit", None),
    (analysis, "fit_exponential", "analysis.fit", _count_fit),
    (files, "write_runs_csv", "files.write", None),
    (files, "write_stats_csv", "files.write", None),
    (files, "write_alpha_phi_csv", "files.write", None),
    (files, "write_fit_csv", "files.write", None),
    (files, "write_text", "files.write", _count_write),
)


class SpanRecorder:
    """Spans and counts of one traced command, kept in memory."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        # raw spans, column-wise to keep memory small
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.run = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[list[int]] = []  # [span id, name id, start, child ns]
        self._next_id = 0
        self._run_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns[name] = 0
            self.calls[name] = 0
        return self._ids[name]

    def _open(self, name_id: int) -> None:
        self._stack.append([self._next_id, name_id, perf_counter_ns(), 0])
        self._next_id += 1

    def _close(self) -> None:
        end = perf_counter_ns()
        sid, name_id, start, child_ns = self._stack.pop()
        duration = end - start
        name = self.names[name_id]
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.span_id) < self.keep:
            self.span_id.append(sid)
            self.parent.append(parent)
            self.name.append(name_id)
            self.run.append(self._run_id)
            self.start.append(start)
            self.end.append(end)

    def _count(self, counter, args, kwargs, result) -> None:
        for key, value in counter(args, kwargs, result).items():
            self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        name_id = self._name_id(name)
        self._open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def traced_main(self, main, argv):
        """``main(argv)`` as a root span, with the wrappers installed only for it."""
        self.install()
        try:
            return self.call("cli.main", main, argv)
        finally:
            self.uninstall()

    def wrap(self, name: str, fn, counter=None):
        name_id = self._name_id(name)
        is_run = name == "ga.run"

        def traced(*args, **kwargs):
            outer_run = self._run_id
            if is_run:
                self._run_id = _run_seed(args, kwargs)
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
                self._run_id = outer_run
            if counter is not None:
                self._count(counter, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target under each name the package binds it to."""
        self.missing = []
        for module, attr, name, counter in TARGETS:
            owner_name, _, attr = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
            elif isinstance(raw, classmethod):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, counter)))
            else:
                traced = self.wrap(name, raw, counter)
                for mod in MODULES + (evogate,):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patches.append((mod, key, value))
                            setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines (times in ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_id)):
                fh.write(json.dumps({
                    "id": self.span_id[i], "parent": self.parent[i],
                    "name": self.names[self.name[i]], "run": self.run[i],
                    "start": self.start[i], "end": self.end[i],
                }) + "\n")
