"""Command-line experiment harness.

Subcommands: ``run`` (one seeded search), ``sweep`` (an ensemble of seeds,
optionally on a process pool), ``fit`` (exponential run-time-versus-accuracy
fit of a results table), and ``reproduce`` (the canned figure-data
pipelines).  Settings come from built-in defaults, then an optional flat
``key = value`` config file, then command-line flags; the effective config is
echoed to stdout and into every output file's metadata block.

Exit codes: 0 success, 1 usage or config error, 2 completed with flags
(generation-cap stop or a non-converged fit).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

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

_INT_KEYS = ("npop", "depth", "elitism", "max_gen", "seeds", "base_seed", "horizon", "workers")
_FLOAT_KEYS = ("half_range", "threshold", "mutation")
# remaining keys (task, out) stay strings

# lower bounds of the integer keys that no library config checks
_INT_MINIMUMS = {"seeds": 1, "horizon": 0, "workers": 1}

# execution-context fields; everything else is echoed into output metadata
_CONTEXT_KEYS = ("out", "workers")


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
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {value!r}") from exc
    return value


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


def make_codec(cfg: ExperimentConfig, task: tasks_mod.TaskSpec) -> CodecConfig:
    return CodecConfig(depth=cfg.depth, half_range=cfg.half_range, dim=task.dim)


def make_ga_config(cfg: ExperimentConfig, task: tasks_mod.TaskSpec) -> GAConfig:
    return GAConfig(
        n_pop=cfg.npop,
        threshold=cfg.threshold,
        codec=make_codec(cfg, task),
        n_slots=task.n_slots,
        mutation_rate=cfg.mutation,
        elitism=cfg.elitism,
        max_generations=cfg.max_gen,
    )


def _echo_config(cfg: ExperimentConfig) -> None:
    print(f"# evogate {__version__}")
    for f in fields(cfg):
        print(f"{f.name} = {files.fmt(getattr(cfg, f.name))}")


def _prepared_state_of(record, task, codec):
    params = genome_mod.decode(record.best_genome, codec)
    return analysis.prepared_state(su2_closed_form(params[0]), task.initial_state)


def _analysis_payload(record, task, ga_cfg) -> dict:
    codec = ga_cfg.codec
    payload = {
        "seed": record.seed,
        "q_c": record.q_c,
        "termination_reason": record.termination_reason,
        "best_fitness": record.best_fitness,
        "epsilon_opt": record.epsilon_opt,
        "rounding_bound": genome_mod.rounding_error_bound(codec, ga_cfg.n_slots),
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
    worker count.  The pool gets the runs in chunks of about a quarter of
    each worker's share (``multiprocessing.Pool.map``'s rule), so a sweep of
    short runs is not dominated by one round trip per run.
    """
    payloads = [(ga_cfg, task, s) for s in seeds]
    if workers > 1:
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
                        rounding_bound=genome_mod.rounding_error_bound(ga_cfg.codec, ga_cfg.n_slots))
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


def _write_sweep_outputs(cfg, task, ga_cfg, results, out_dir, prefix="") -> int:
    """Write runs/stats/alpha-phi tables; returns the number of successes."""
    records = [(i, r) for i, (status, r) in enumerate(results) if status == "ok"]
    failures = [(i, r) for i, (status, r) in enumerate(results) if status != "ok"]
    meta = cfg.metadata()

    runs_rows = []
    for i, (status, payload) in enumerate(results):
        if status == "ok":
            runs_rows.append(
                (i, payload.seed, payload.q_c, payload.epsilon_opt, payload.best_fitness,
                 payload.termination_reason, genome_mod.genome_to_field(payload.best_genome))
            )
        else:
            runs_rows.append((i, cfg.base_seed + i, 0, math.nan, math.nan, "error", ""))
    files.write_runs_csv(os.path.join(out_dir, f"{prefix}runs.csv"), runs_rows, meta)

    if records:
        recs = [r for _, r in records]
        if cfg.horizon > 0:
            mean, std = analysis.mean_fitness_curves(recs, cfg.horizon)
            counts = np.full(cfg.horizon, len(recs), dtype=np.int64)
        else:
            stats = analysis.ensemble_stats(recs)
            mean, std, counts = stats.mean_fitness, stats.std_fitness, stats.counts
        files.write_stats_csv(
            os.path.join(out_dir, f"{prefix}stats.csv"),
            range(1, len(mean) + 1), mean, std, counts, meta,
        )
        if task.dim == 2:
            rows = []
            for i, rec in records:
                ps = _prepared_state_of(rec, task, ga_cfg.codec)
                rows.append((i, ps.alpha, ps.phi, rec.epsilon_opt))
            files.write_alpha_phi_csv(os.path.join(out_dir, f"{prefix}alpha_phi.csv"), rows, meta)

    for _, message in failures:
        print(f"warning: {message}", file=sys.stderr)
    return len(records)


def cmd_sweep(cfg: ExperimentConfig) -> int:
    task = resolve_task(cfg.task)
    ga_cfg = make_ga_config(cfg, task)
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.seeds)
    results = run_many(ga_cfg, task, seeds, cfg.workers)
    os.makedirs(cfg.out, exist_ok=True)
    n_ok = _write_sweep_outputs(cfg, task, ga_cfg, results, cfg.out)
    print(f"sweep: {n_ok}/{cfg.seeds} runs succeeded, results in {cfg.out}")
    return EXIT_OK if n_ok > 0 else EXIT_ERROR


def cmd_fit(cfg: ExperimentConfig, input_path: str, bins: int) -> int:
    eps, q = files.read_points_csv(input_path)
    if bins > 0:
        eps, q = analysis.quantile_bins(eps, q, bins)
    fit = analysis.fit_exponential(eps, q)
    os.makedirs(cfg.out, exist_ok=True)
    meta = cfg.metadata(bins=bins, n_points=len(eps), source=os.path.basename(input_path))
    files.write_fit_csv(os.path.join(cfg.out, "fit.csv"), fit, meta)
    status = "converged" if fit.converged else "NOT converged"
    print(
        f"fit: {status} after {fit.n_iter} iterations: "
        f"a = {fit.a:.4g} +- {fit.a_err:.2g}, b = {fit.b:.4g} +- {fit.b_err:.2g}, "
        f"c = {fit.c:.4g} +- {fit.c_err:.2g}"
    )
    return EXIT_OK if fit.converged else EXIT_FLAGGED


def cmd_reproduce(cfg: ExperimentConfig, explicit, figure: str) -> int:
    if "seeds" not in explicit:
        cfg.seeds = 1000
    task = resolve_task(cfg.task)
    os.makedirs(cfg.out, exist_ok=True)
    worst = EXIT_OK

    def sweep_with(npop: int, horizon: int, prefix: str) -> list:
        local = ExperimentConfig(**{f.name: getattr(cfg, f.name) for f in fields(cfg)})
        local.npop = npop
        local.horizon = horizon
        ga_cfg = make_ga_config(local, task)
        seeds = range(local.base_seed, local.base_seed + local.seeds)
        results = run_many(ga_cfg, task, seeds, local.workers)
        n_ok = _write_sweep_outputs(local, task, ga_cfg, results, local.out, prefix=prefix)
        print(f"{figure}: npop={npop}: {n_ok}/{local.seeds} runs succeeded")
        if n_ok == 0:
            raise RuntimeError(f"all runs failed for npop={npop}")
        return [r for status, r in results if status == "ok"]

    if figure == "fig5":
        npops = [cfg.npop] if "npop" in explicit else [10, 50, 100]
        horizon = cfg.horizon if "horizon" in explicit else 100
        for npop in npops:
            sweep_with(npop, horizon, prefix=f"fig5_npop{npop}_")
    elif figure == "fig6":
        npop = cfg.npop if "npop" in explicit else 100
        sweep_with(npop, cfg.horizon, prefix="fig6_")
    elif figure == "fig7":
        npops = [cfg.npop] if "npop" in explicit else [100, 200, 300, 400]
        for npop in npops:
            records = sweep_with(npop, cfg.horizon, prefix=f"fig7_npop{npop}_")
            converged = [r for r in records if r.termination_reason == "converged"]
            eps = np.array([r.epsilon_opt for r in converged])
            q = np.array([r.q_c for r in converged], dtype=float)
            eps_b, q_b = analysis.quantile_bins(eps, q, 20)
            fit = analysis.fit_exponential(eps_b, q_b)
            local_meta = cfg.metadata(npop=npop, bins=20, n_points=len(eps_b))
            files.write_fit_csv(
                os.path.join(cfg.out, f"fig7_npop{npop}_fit.csv"), fit, local_meta
            )
            if not fit.converged:
                worst = max(worst, EXIT_FLAGGED)
    else:
        print(f"error: unknown figure {figure!r}", file=sys.stderr)
        return EXIT_ERROR
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
        p.add_argument("--base-seed", dest="base_seed", type=int, help="first seed")
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
    p_rep.add_argument("figure", choices=["fig5", "fig6", "fig7"])
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
        _echo_config(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.input, args.bins)
        if args.command == "reproduce":
            return cmd_reproduce(cfg, explicit, args.figure)
        print(f"error: unknown command {args.command!r}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
