"""Command-line experiment harness.

Subcommands: ``run`` (one seeded search), ``sweep`` (an ensemble of seeds,
optionally on a process pool), ``fit`` (exponential run-time-versus-accuracy
fit of a results table), and ``reproduce`` (the canned figure-data
pipelines).  Settings come from built-in defaults, then an optional flat
``key = value`` config file, then command-line flags; the effective config is
echoed to stdout and into every output file's metadata block.

Exit codes: 0 success, 1 usage or config error, 2 completed with flags
(generation-cap stop, or a fit that did not converge or is not identified).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

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

# the populations each canned figure sweeps unless --npop names one
_FIGURE_NPOPS = {"fig5": [10, 50, 100], "fig6": [100], "fig7": [100, 200, 300, 400]}


@dataclass
class ExperimentConfig:
    """Effective settings of one command invocation."""

    task: str = "deutsch"
    npop: int = 100
    depth: int = 15
    half_range: float = math.pi
    threshold: float = 1e-4
    mutation: float = 0.0
    elitism: int = 0
    max_gen: int = 500
    seeds: int = 1
    base_seed: int = 1
    horizon: int = 0
    out: str = "results"
    workers: int = 1

    def metadata(self, **extra) -> dict:
        """Config echo for output files (execution context excluded so equal
        experiments produce byte-identical results)."""
        meta = {}
        for f in fields(self):
            if f.name not in _CONTEXT_KEYS:
                meta[f.name] = getattr(self, f.name)
        meta.update(extra)
        return meta


def _coerce(key: str, value: str):
    """A config-file value parsed as the type of the key's default."""
    try:
        return type(getattr(ExperimentConfig, key))(value)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {value!r}") from exc


def load_config(config_path, flag_values: dict):
    """Merge defaults, config-file entries, and explicit CLI flags.

    Returns the effective config plus the set of explicitly set keys.  A
    value below its key's minimum in ``_INT_MINIMUMS`` raises ``ValueError``.
    """
    cfg = ExperimentConfig()
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
    """A built-in task name, or a path to a task description file."""
    try:
        return tasks_mod.builtin_task(name)
    except KeyError:
        pass
    return tasks_mod.load_task(name)


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


def _echo_config(cfg: ExperimentConfig) -> None:
    print(f"# evogate {__version__}")
    for f in fields(cfg):
        print(f"{f.name} = {files.fmt(getattr(cfg, f.name))}")


def _analysis_payload(record, task, ga_cfg) -> dict:
    codec = ga_cfg.codec
    payload = {
        "seed": record.seed,
        "q_c": record.q_c,
        "termination_reason": record.termination_reason,
        "best_fitness": record.best_fitness,
        "epsilon_opt": record.epsilon_opt,
        "rounding_bound": genome_mod.rounding_error_bound(codec, task),
    }
    if task.dim != 2:
        return payload
    params = genome_mod.decode(record.best_genome, codec)
    unitaries = su2_closed_form(params)
    rotations = []
    for u in unitaries:
        b = analysis.bloch_decompose(u)
        rotations.append(
            {"theta": b.theta, "axis": list(b.axis), "residual": b.residual,
             "degenerate": b.degenerate}
        )
    payload["rotations"] = rotations
    ps = analysis.prepared_state(unitaries[0], task.initial_state)
    payload["prepared_state"] = {"alpha": ps.alpha, "phi": ps.phi, "degenerate": ps.degenerate}
    if len(task.pairs) == 2:
        outs = [
            tasks_mod.compose_total(task, record.best_genome, codec, label) @ task.initial_state
            for label, _ in task.pairs
        ]
        ok_const, ok_balanced, defect = tasks_mod.decision_outcome(outs[0], outs[1])
        payload["decision"] = {
            "success_constant": ok_const,
            "success_balanced": ok_balanced,
            "orthogonality_defect": defect,
        }
    return payload


def _sweep_worker(payload):
    ga_cfg, task, seed = payload
    try:
        return "ok", ga_run(ga_cfg, task, seed)
    except Exception as exc:  # recorded per run; the sweep continues
        return "error", f"seed {seed}: {exc}"


def run_many(ga_cfg, task, seeds, workers: int):
    """Execute seeded runs, in order, optionally on a process pool.

    Results are merged by run index, so the outcome does not depend on the
    worker count.  The pool has at most one worker per seed, and one worker
    means no pool.  It gets the runs in chunks of about a quarter of each
    worker's share (``multiprocessing.Pool.map``'s rule), so a sweep of
    short runs is not dominated by one round trip per run.
    """
    payloads = [(ga_cfg, task, s) for s in seeds]
    workers = min(workers, len(payloads))
    if workers > 1:
        # imported here, in the parent before the first fork, so that serial
        # commands never load concurrent.futures and multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, math.ceil(len(payloads) / (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_worker, payloads, chunksize=chunksize))
    return [_sweep_worker(p) for p in payloads]


def cmd_run(cfg: ExperimentConfig) -> int:
    task = resolve_task(cfg.task)
    ga_cfg = make_ga_config(cfg, task)
    record = ga_run(ga_cfg, task, cfg.base_seed)
    os.makedirs(cfg.out, exist_ok=True)
    meta = cfg.metadata(seed=record.seed,
                        rounding_bound=genome_mod.rounding_error_bound(ga_cfg.codec, task))
    files.write_run_csv(os.path.join(cfg.out, f"run_{record.seed}.csv"), record, 0, meta)
    files.write_genome_json(os.path.join(cfg.out, f"genome_{record.seed}.json"),
                            record.best_genome, meta)
    files.write_json(
        os.path.join(cfg.out, f"analysis_{record.seed}.json"),
        {"metadata": {"version": __version__, **meta}, **_analysis_payload(record, task, ga_cfg)},
    )
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
    os.makedirs(cfg.out, exist_ok=True)
    meta = cfg.metadata()

    def path(name):
        return os.path.join(cfg.out, prefix + name)

    rows, records = [], []
    for i, (status, rec) in enumerate(results):
        if status == "ok":
            records.append(rec)
            rows.append((i, rec.seed, rec.q_c, rec.epsilon_opt, rec.best_fitness,
                         rec.termination_reason, genome_mod.genome_to_field(rec.best_genome)))
        else:
            rows.append((i, seeds[i], 0, math.nan, math.nan, "error", ""))
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

    for status, message in results:
        if status != "ok":
            print(f"warning: {message}", file=sys.stderr)
    return records


def cmd_sweep(cfg: ExperimentConfig) -> int:
    records = _sweep(cfg, resolve_task(cfg.task))
    print(f"sweep: {len(records)}/{cfg.seeds} runs succeeded, results in {cfg.out}")
    return EXIT_OK if records else EXIT_ERROR


def _fit_status(fit) -> tuple[str, str]:
    return ("converged" if fit.converged else "NOT converged",
            "identified" if fit.identified else "NOT identified")


def cmd_fit(cfg: ExperimentConfig, input_path: str, bins: int) -> int:
    if bins < 0:
        raise ValueError(f"--bins must be >= 0, got {bins}")
    eps, q = files.read_points_csv(input_path)
    if bins > 0:
        eps, q = analysis.quantile_bins(eps, q, bins)
    fit = analysis.fit_exponential(eps, q)
    os.makedirs(cfg.out, exist_ok=True)
    meta = cfg.metadata(bins=bins, n_points=len(eps), source=os.path.basename(input_path))
    files.write_fit_csv(os.path.join(cfg.out, "fit.csv"), fit, meta)
    converged, identified = _fit_status(fit)
    print(
        f"fit: {converged} after {fit.n_iter} iterations, {identified}: "
        f"a = {fit.a:.4g} +- {fit.a_err:.2g}, b = {fit.b:.4g} +- {fit.b_err:.2g}, "
        f"c = {fit.c:.4g} +- {fit.c_err:.2g}"
    )
    return EXIT_OK if fit.converged and fit.identified else EXIT_FLAGGED


def cmd_reproduce(cfg: ExperimentConfig, explicit, figure: str) -> int:
    task = resolve_task(cfg.task)
    os.makedirs(cfg.out, exist_ok=True)
    worst = EXIT_OK

    npops = [cfg.npop] if "npop" in explicit else _FIGURE_NPOPS[figure]
    horizon = 100 if figure == "fig5" and "horizon" not in explicit else cfg.horizon
    for npop in npops:
        prefix = "fig6_" if figure == "fig6" else f"{figure}_npop{npop}_"
        records = _sweep(replace(cfg, npop=npop, horizon=horizon), task, prefix)
        print(f"{figure}: npop={npop}: {len(records)}/{cfg.seeds} runs succeeded")
        if not records:
            raise RuntimeError(f"all runs failed for npop={npop}")
        if figure != "fig7":
            continue
        done = [r for r in records if r.termination_reason == "converged"]
        eps = np.array([r.epsilon_opt for r in done])
        q = np.array([r.q_c for r in done], dtype=float)
        eps_b, q_b = analysis.quantile_bins(eps, q, 20)
        try:
            fit = analysis.fit_exponential(eps_b, q_b)
        except ValueError as exc:  # too few or all-equal points: this npop only
            print(f"{figure}: npop={npop}: fit skipped: {exc}")
            worst = EXIT_FLAGGED
            continue
        local_meta = cfg.metadata(npop=npop, bins=20, n_points=len(eps_b))
        files.write_fit_csv(os.path.join(cfg.out, f"{prefix}fit.csv"), fit, local_meta)
        converged, identified = _fit_status(fit)
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
        p.add_argument("--task", help="built-in task name or task file path")
        p.add_argument("--npop", type=int, help="population size")
        p.add_argument("--depth", type=int, help="bits per chromosome (L)")
        p.add_argument("--half-range", dest="half_range", type=float,
                       help="parameter half-range in radians (default pi)")
        p.add_argument("--threshold", type=float,
                       help="fitness-fluctuation termination threshold (h)")
        p.add_argument("--mutation", type=float, help="per-gene mutation probability")
        p.add_argument("--elitism", type=int, help="individuals copied unchanged")
        p.add_argument("--max-gen", dest="max_gen", type=int, help="generation safety cap")
        p.add_argument("--seeds", type=int, help="ensemble size (number of seeds)")
        p.add_argument("--base-seed", dest="base_seed", type=int, help="first seed (at least 0)")
        p.add_argument("--horizon", type=int,
                       help="pad mean-fitness curves to this many generations in stats output")
        p.add_argument("--out", help="output directory")
        p.add_argument("--workers", type=int, help="process-pool size for sweeps")

    p_run = sub.add_parser("run", help="one seeded search")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="an ensemble of seeded searches")
    add_common(p_sweep)

    p_fit = sub.add_parser("fit", help="exponential fit of (epsilon, q) data")
    p_fit.add_argument("input", help="CSV with epsilon_opt/q_c (or epsilon/q) columns")
    p_fit.add_argument("--bins", type=int, default=20,
                       help="equal-count bins before fitting (0 = fit raw points)")
    add_common(p_fit)

    p_rep = sub.add_parser("reproduce", help="canned figure-data pipelines")
    p_rep.add_argument("figure", choices=sorted(_FIGURE_NPOPS))
    add_common(p_rep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors; remap per contract
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    flag_values = {
        f.name: getattr(args, f.name)
        for f in fields(ExperimentConfig)
        if hasattr(args, f.name)
    }
    try:
        cfg, explicit = load_config(args.config, flag_values)
        if args.command == "reproduce" and "seeds" not in explicit:
            cfg.seeds = 1000  # before the echo, so stdout matches the files' metadata
        _echo_config(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.input, args.bins)
        return cmd_reproduce(cfg, explicit, args.figure)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
