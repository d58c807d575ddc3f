"""Command-line experiment harness.

Subcommands: ``run`` (one seeded search), ``sweep`` (an ensemble of seeds,
optionally on a process pool), ``fit`` (exponential run-time-versus-accuracy
fit of a results table), and ``reproduce`` (the canned figure-data
pipelines).  Settings come from built-in defaults, then a figure's presets
(``reproduce`` only), then an optional flat ``key = value`` config file, then
command-line flags; the effective config is echoed to stdout and into every
output file's metadata block.

Exit codes: 0 success, 1 usage or config error, 2 completed with flags
(generation-cap stop, a sweep with a failed or lost run, or a fit that did
not converge or is not identified).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, analysis, files
from . import genome as genome_mod
from . import tasks as tasks_mod
from .ga import GAConfig, run as ga_run
from .genome import CodecConfig
from .linalg import su2_closed_form

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2

# lower bounds of the integer keys that no library config checks
_INT_MINIMUMS = {"seeds": 1, "base_seed": 0, "horizon": 0, "workers": 1}

# execution-context fields; everything else is echoed into output metadata
_CONTEXT_KEYS = ("out", "workers")

# each canned figure: the populations it sweeps unless npop is set, and its presets
_FIGURES = {"fig5": ([10, 50, 100], {"seeds": 1000, "horizon": 100}),
            "fig6": ([100], {"seeds": 1000}),
            "fig7": ([100, 200, 300, 400], {"seeds": 1000})}


def _setting(default, help_text: str):
    """A config field with the help text of its command-line flag."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class ExperimentConfig:
    """Effective settings of one command invocation.

    Each field is a config-file key and, with dashes for underscores, a flag
    of every subcommand (see :func:`build_parser`), typed like its default.
    """

    task: str = _setting("deutsch", "built-in task name or task file path")
    npop: int = _setting(100, "population size")
    depth: int = _setting(15, "bits per chromosome (L)")
    half_range: float = _setting(CodecConfig.half_range,
                                 "parameter half-range in radians (default pi)")
    threshold: float = _setting(1e-4, "fitness-fluctuation termination threshold (h)")
    mutation: float = _setting(GAConfig.mutation_rate, "per-gene mutation probability")
    elitism: int = _setting(GAConfig.elitism, "individuals copied unchanged")
    max_gen: int = _setting(GAConfig.max_generations, "generation safety cap")
    seeds: int = _setting(1, "ensemble size (number of seeds)")
    base_seed: int = _setting(1, "first seed (at least 0)")
    horizon: int = _setting(0, "pad mean-fitness curves to this many generations in stats output")
    out: str = _setting("results", "output directory")
    workers: int = _setting(1, "processes that run a sweep's seeds, this one included")

    def metadata(self, **extra) -> dict:
        """Config echo for output files (execution context excluded so equal
        experiments produce byte-identical results)."""
        meta = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _CONTEXT_KEYS}
        return {**meta, **extra}


def _coerce(key: str, value: str):
    """A config-file value parsed as the type of the key's default."""
    try:
        return type(getattr(ExperimentConfig, key))(value)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {value!r}") from exc


def load_config(config_path, flag_values: dict, presets=None):
    """Merge defaults, ``presets`` (a canned figure's), config-file entries
    and explicit CLI flags, each over the one before.

    Returns the effective config plus the set of keys a file or flag set.  A
    value below its key's minimum in ``_INT_MINIMUMS`` raises ``ValueError``.
    """
    cfg = ExperimentConfig(**(presets or {}))
    explicit = set()
    known = {f.name for f in fields(ExperimentConfig)}
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            entries = files.parse_config_text(fh.read())
        for key, value in entries.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, _coerce(key, value))
            explicit.add(key)
    for key, value in flag_values.items():
        if value is not None:
            setattr(cfg, key, value)
            explicit.add(key)
    for key, low in _INT_MINIMUMS.items():
        if getattr(cfg, key) < low:
            raise ValueError(f"config key {key!r} must be >= {low}, got {getattr(cfg, key)}")
    return cfg, explicit


def resolve_task(name: str) -> tasks_mod.TaskSpec:
    """The built-in task ``deutsch``, or a path to a task description file."""
    return tasks_mod.deutsch_task() if name == "deutsch" else tasks_mod.load_task(name)


def make_ga_config(cfg: ExperimentConfig, task: tasks_mod.TaskSpec) -> GAConfig:
    """The search settings of ``cfg``.  ``task`` is not read: the task passed
    to ``ga.run`` fixes the genome shape itself."""
    return GAConfig(
        n_pop=cfg.npop,
        threshold=cfg.threshold,
        codec=CodecConfig(depth=cfg.depth, half_range=cfg.half_range),
        mutation_rate=cfg.mutation,
        elitism=cfg.elitism,
        max_generations=cfg.max_gen,
    )


def _echo_config(cfg: ExperimentConfig, npops: list) -> None:
    print(f"# evogate {__version__}")
    for f in fields(cfg):
        value = ",".join(map(str, npops)) if f.name == "npop" else getattr(cfg, f.name)
        print(f"{f.name} = {files.fmt(value)}")


def _analysis_payload(record, task, codec, meta: dict) -> dict:
    """The ``analysis_<seed>.json`` content of one run."""
    payload = {
        "metadata": {"version": __version__, **meta},
        "seed": record.seed,
        "q_c": record.q_c,
        "termination_reason": record.termination_reason,
        "best_fitness": record.best_fitness,
        "epsilon_opt": record.epsilon_opt,
        "rounding_bound": meta["rounding_bound"],
    }
    if task.dim != 2:
        return payload
    params = genome_mod.decode(record.best_genome, codec)
    unitaries = su2_closed_form(params)
    payload["rotations"] = [asdict(analysis.bloch_decompose(u)) for u in unitaries]
    payload["prepared_state"] = asdict(analysis.prepared_state(unitaries[0], task.initial_state))
    if len(task.pairs) == 2:
        outs = [np.einsum("ij,j->i", tasks_mod.compose_total(task, params, label),
                          task.initial_state) for label, _ in task.pairs]
        ok_const, ok_balanced, defect = tasks_mod.decision_outcome(outs[0], outs[1])
        payload["decision"] = {
            "success_constant": ok_const,
            "success_balanced": ok_balanced,
            "orthogonality_defect": defect,
        }
    return payload


def _sweep_worker(ga_cfg, task, seed):
    try:
        return "ok", ga_run(ga_cfg, task, seed)
    except Exception as exc:  # recorded per run; the sweep continues
        return "error", f"seed {seed}: {exc}"


def _drain(claim, ga_cfg, task, seeds) -> dict:
    """Run the indices of ``seeds`` that ``claim`` hands out until none is left."""
    done = {}
    while True:
        with claim.get_lock():
            i = claim.value
            claim.value = min(i + 1, len(seeds))
        if i == len(seeds):
            return done
        done[i] = _sweep_worker(ga_cfg, task, seeds[i])


def _child(writer, *drain_args) -> None:
    writer.send(_drain(*drain_args))  # once, at the end: a child that dies sends nothing


def run_many(ga_cfg, task, seeds, workers: int):
    """Execute seeded runs; returns their ``(status, record)`` pairs in seed order.

    ``min(workers, len(seeds))`` processes, this one and forked children, take
    run indices from one shared counter; one means no pool.  Merged by index,
    the outcome does not depend on the worker count.  A dead child costs only
    its own runs, and no child outlives the call.
    """
    workers = min(workers, len(seeds))
    if workers == 1:
        return [_sweep_worker(ga_cfg, task, s) for s in seeds]
    # imported in the parent before the first fork, so serial commands never
    # load it; the children fork to inherit ga_run, settings, task and seeds
    from multiprocessing import get_context

    fork = get_context("fork")
    claim = fork.Value("q", 0)
    children, done = [], {}
    try:
        for _ in range(workers - 1):
            reader, writer = fork.Pipe(duplex=False)
            proc = fork.Process(target=_child, args=(writer, claim, ga_cfg, task, seeds),
                                daemon=True)
            proc.start()
            writer.close()  # before the next fork, so only this child holds the write end
            children.append((proc, reader))
        done.update(_drain(claim, ga_cfg, task, seeds))
    finally:  # if this drain raised, children stop after their current run
        claim.value = len(seeds)
        for proc, reader in children:  # read first: a large map blocks the child in send
            # end of file, also inside a message: the child died, its runs are lost
            with reader, suppress(EOFError, OSError):
                done.update(reader.recv())
            proc.join()
    return [done.get(i, ("error", f"seed {seed}: worker process died"))
            for i, seed in enumerate(seeds)]


def cmd_run(cfg: ExperimentConfig) -> int:
    task = resolve_task(cfg.task)
    ga_cfg = make_ga_config(cfg, task)
    record = ga_run(ga_cfg, task, cfg.base_seed)
    meta = cfg.metadata(seed=record.seed,
                        rounding_bound=genome_mod.rounding_error_bound(ga_cfg.codec, task))
    files.write_run_csv(os.path.join(cfg.out, f"run_{record.seed}.csv"), record, cfg.depth, meta)
    files.write_genome_json(os.path.join(cfg.out, f"genome_{record.seed}.json"),
                            record.best_genome, cfg.depth, meta)
    files.write_json(os.path.join(cfg.out, f"analysis_{record.seed}.json"),
                     _analysis_payload(record, task, ga_cfg.codec, meta))
    print(
        f"run seed={record.seed}: {record.termination_reason} after {record.q_c} generations, "
        f"epsilon_opt = {record.epsilon_opt:.3e}"
    )
    return EXIT_OK if record.termination_reason == "converged" else EXIT_FLAGGED


def _sweep(cfg: ExperimentConfig, task, prefix: str = "") -> list:
    """Run ``cfg.seeds`` seeds from ``cfg.base_seed`` and write the runs,
    stats and (for qubit tasks) alpha-phi tables to ``cfg.out``, each name
    led by ``prefix``.  A failed run gets an ``error`` row and a stderr
    warning; returns the records of the runs that succeeded, in seed order."""
    ga_cfg = make_ga_config(cfg, task)
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.seeds)
    results = run_many(ga_cfg, task, seeds, cfg.workers)
    meta = cfg.metadata()

    def path(name):
        return os.path.join(cfg.out, prefix + name)

    rows, records = [], []
    for i, (status, rec) in enumerate(results):
        if status == "ok":
            records.append(rec)
            field = genome_mod.genome_to_field(rec.best_genome, cfg.depth)
            rows.append((i, rec.seed, rec.q_c, rec.epsilon_opt, rec.best_fitness,
                         rec.termination_reason, field))
        else:
            rows.append((i, seeds[i], 0, math.nan, math.nan, "error", ""))
            print(f"warning: {rec}", file=sys.stderr)
    files.write_runs_csv(path("runs.csv"), rows, meta)

    if records:
        mean, std, counts = analysis.ensemble_stats(records, cfg.horizon)
        files.write_stats_csv(path("stats.csv"), range(1, len(mean) + 1), mean, std, counts, meta)
        if task.dim == 2:
            rows = []
            for rec in records:
                params = genome_mod.decode(rec.best_genome, ga_cfg.codec)
                ps = analysis.prepared_state(su2_closed_form(params[0]), task.initial_state)
                rows.append((rec.seed - cfg.base_seed, ps.alpha, ps.phi, rec.epsilon_opt))
            files.write_alpha_phi_csv(path("alpha_phi.csv"), rows, meta)
    return records


def cmd_sweep(cfg: ExperimentConfig) -> int:
    records = _sweep(cfg, resolve_task(cfg.task))
    print(f"sweep: {len(records)}/{cfg.seeds} runs succeeded, results in {cfg.out}")
    if not records:
        return EXIT_ERROR
    return EXIT_OK if len(records) == cfg.seeds else EXIT_FLAGGED


def _fit_step(cfg: ExperimentConfig, eps, q, bins: int, name: str, **source):
    """Bin ``(eps, q)`` into ``bins`` equal-count bins (0 fits the raw points),
    fit, write ``name`` in ``cfg.out``, and return the fit with its verdict
    words ``"[NOT ]converged"`` and ``"[NOT ]identified"``."""
    if bins > 0:
        eps, q = analysis.quantile_bins(eps, q, bins)
    fit = analysis.fit_exponential(eps, q)
    meta = cfg.metadata(bins=bins, n_points=len(eps), **source)
    files.write_fit_csv(os.path.join(cfg.out, name), fit, meta)
    return (fit, "converged" if fit.converged else "NOT converged",
            "identified" if fit.identified else "NOT identified")


def cmd_fit(cfg: ExperimentConfig, input_path: str, bins: int) -> int:
    if bins < 0:
        raise ValueError(f"--bins must be >= 0, got {bins}")
    eps, q = files.read_points_csv(input_path)
    fit, converged, identified = _fit_step(cfg, eps, q, bins, "fit.csv",
                                           source=os.path.basename(input_path))
    print(
        f"fit: {converged} after {fit.n_iter} iterations, {identified}: "
        f"a = {fit.a:.4g} +- {fit.a_err:.2g}, b = {fit.b:.4g} +- {fit.b_err:.2g}, "
        f"c = {fit.c:.4g} +- {fit.c_err:.2g}"
    )
    return EXIT_OK if fit.converged and fit.identified else EXIT_FLAGGED


def cmd_reproduce(cfg: ExperimentConfig, npops: list, figure: str) -> int:
    task = resolve_task(cfg.task)
    worst = EXIT_OK
    for npop in npops:
        prefix = "fig6_" if figure == "fig6" else f"{figure}_npop{npop}_"
        npop_cfg = replace(cfg, npop=npop)
        records = _sweep(npop_cfg, task, prefix)
        print(f"{figure}: npop={npop}: {len(records)}/{cfg.seeds} runs succeeded")
        if not records:
            raise RuntimeError(f"all runs failed for npop={npop}")
        if len(records) < cfg.seeds:
            worst = EXIT_FLAGGED
        if figure != "fig7":
            continue
        done = [r for r in records if r.termination_reason == "converged"]
        eps = np.array([r.epsilon_opt for r in done])
        q = np.array([r.q_c for r in done], dtype=float)
        try:
            fit, converged, identified = _fit_step(npop_cfg, eps, q, 20, f"{prefix}fit.csv")
        except ValueError as exc:  # too few or all-equal points: this npop only
            print(f"{figure}: npop={npop}: fit skipped: {exc}")
            worst = EXIT_FLAGGED
            continue
        print(f"{figure}: npop={npop}: fit {converged}, {identified}: "
              f"b = {fit.b:.4g} +- {fit.b_err:.2g}, c = {fit.c:.4g} +- {fit.c_err:.2g}")
        if not (fit.converged and fit.identified):
            worst = EXIT_FLAGGED
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evogate",
        description="Evolve the internal unitaries of a quantum computation "
                    "from input-target pairs with a genetic algorithm.",
    )
    parser.add_argument("--version", action="version", version=f"evogate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value settings file")
        for f in fields(ExperimentConfig):
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           help=f.metadata["help"])

    add_common(sub.add_parser("run", help="one seeded search"))
    add_common(sub.add_parser("sweep", help="an ensemble of seeded searches"))

    p_fit = sub.add_parser("fit", help="exponential fit of (epsilon, q) data")
    p_fit.add_argument("input", help="CSV with epsilon_opt/q_c (or epsilon/q) columns")
    p_fit.add_argument("--bins", type=int, default=20,
                       help="equal-count bins before fitting (0 = fit raw points)")
    add_common(p_fit)

    p_rep = sub.add_parser("reproduce", help="canned figure-data pipelines")
    p_rep.add_argument("figure", choices=sorted(_FIGURES))
    add_common(p_rep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors; remap per contract
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    flag_values = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    try:
        presets = _FIGURES[args.figure][1] if args.command == "reproduce" else None
        cfg, explicit = load_config(args.config, flag_values, presets)
        swept = presets is not None and "npop" not in explicit  # the figure's populations
        npops = _FIGURES[args.figure][0] if swept else [cfg.npop]
        _echo_config(cfg, npops)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.input, args.bins)
        return cmd_reproduce(cfg, npops, args.figure)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
