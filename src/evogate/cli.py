"""Command-line experiment harness.

Subcommands: ``run`` (one seeded search), ``sweep`` (an ensemble of seeds,
optionally on a process pool), ``fit`` (exponential run-time-versus-accuracy
fit of a results table), and ``reproduce`` (the canned figure-data
pipelines).  Settings come from built-in defaults, then a figure's presets
(``reproduce`` only), then an optional flat ``key = value`` config file, then
command-line flags; the effective config is echoed to stdout and into every
output file's metadata block.  Each table's columns are declared here, where
its rows are written or read; :mod:`evogate.files` holds only the byte format.

Exit codes: 0 success, 1 usage or config error, 2 completed with flags
(generation-cap stop, a sweep with a failed or lost run, or a fit that did
not converge or is not identified).
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import sys
import tempfile
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, analysis, files
from . import genome as genome_mod
from . import tasks as tasks_mod
from .ga import TERMINATED_CAP, TERMINATED_CONVERGED, GAConfig, run as ga_run
from .genome import CodecConfig

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
    value below its key's minimum in ``_INT_MINIMUMS``, a horizon whose stats
    table cannot fit in physical memory, or a metadata value that cannot be
    written as one UTF-8 line raises ``ValueError`` before any run.
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
    # ensemble_stats holds about two seeds x horizon arrays of doubles at once,
    # and the stats writer at most 300 bytes a generation (its lines and text);
    # a host that does not report its physical memory (Windows) is not checked
    table = (16 * cfg.seeds + 300) * cfg.horizon
    if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {}):
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if table > memory:
            raise ValueError(f"config key 'horizon': {cfg.seeds} seeds x {cfg.horizon} generations"
                             f" need {table} bytes of stats, more than {memory} of physical memory")
    for key, value in cfg.metadata().items():
        files.check_metadata(f"config key {key!r}", value)
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


def _analysis_payload(record, task, codec, rounding_bound: float) -> dict:
    """The ``analysis_<seed>.json`` content of one run, below its metadata."""
    keys = ("seed", "q_c", "termination_reason", "best_fitness", "epsilon_opt")
    payload = {**{k: getattr(record, k) for k in keys}, "rounding_bound": rounding_bound}
    if task.dim != 2:
        return payload
    params = genome_mod.decode(record.best_genome, codec)
    unitaries = tasks_mod.trainable_unitaries(task, params)
    payload["rotations"] = [asdict(analysis.bloch_decompose(u)) for u in unitaries]
    payload["prepared_state"] = asdict(analysis.prepared_state(unitaries[0], task.initial_state))
    if len(task.pairs) == 2:
        outs = [np.einsum("ij,j->i", tasks_mod.compose_total(task, params, label),
                          task.initial_state) for label, _ in task.pairs]
        keys = ("success_constant", "success_balanced", "orthogonality_defect")
        payload["decision"] = dict(zip(keys, tasks_mod.decision_outcome(*outs)))
    return payload


def _drain(tickets, ga_cfg, task, seeds) -> dict:
    """Run the indices of ``seeds`` read from the ticket file ``tickets``
    until it is used up; a failed run is recorded and the drain goes on."""
    done = {}
    while ticket := os.read(tickets, 8):
        i = int.from_bytes(ticket, "little")
        try:
            done[i] = "ok", ga_run(ga_cfg, task, seeds[i])
        except Exception as exc:  # recorded per run; the sweep continues
            done[i] = "error", (type(exc).__name__, str(exc))
    return done


def run_many(ga_cfg, task, seeds, workers: int):
    """Execute seeded runs; returns their ``(status, record)`` pairs in seed
    order.  A failed run's record is ``(exception type name, message)``; a
    lost run's is ``(None, "worker process died")``.

    ``min(workers, len(seeds), CPUs this process may use)`` processes, this
    one and ``os.fork`` children, read run indices, 8 bytes each, from one
    shared ticket file.  The processes share the file's offset, and Linux
    moves it atomically on ``read`` (read(2), since 3.14), so each index goes
    to exactly one process and no claim holds a lock; other ``fork``
    platforms are unverified.  Each child pickles its results into its own
    pipe once, at the end; merged by index, the outcome does not depend on
    the worker count.  A dead child costs only its own runs, and no child,
    pipe or ticket file outlives the call.  Without ``os.fork``, more than
    one process raises ``ValueError`` before any run.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(seeds), cpus or 1)
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"config key 'workers': {workers} processes need os.fork, "
                         "which this platform lacks")
    ticket_file = tempfile.TemporaryFile()
    tickets = ticket_file.fileno()
    children, done = [], {}  # (pid, read end of its pipe) of each child
    try:
        ticket_file.write(np.arange(len(seeds), dtype="<i8").tobytes())
        ticket_file.seek(0)
        for _ in range(workers - 1):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:  # the child never returns into the caller's frames
                    try:
                        with open(writer, "wb") as sink:
                            pickle.dump(_drain(tickets, ga_cfg, task, seeds), sink)
                    finally:
                        os._exit(0)  # flushes no stdio buffer the parent filled
            except BaseException:  # the fork failed: no child holds this pipe
                os.close(reader)
                raise
            finally:
                os.close(writer)  # before the next fork, so only the child holds it
            children.append((pid, reader))
        done.update(_drain(tickets, ga_cfg, task, seeds))
    except BaseException:  # no ticket left: each child stops after its current run
        os.lseek(tickets, 0, os.SEEK_END)
        raise
    finally:
        for pid, reader in children:  # read first: a large map blocks the child in write
            # end of file, also inside the pickle: the child died, its runs are lost
            with open(reader, "rb") as source, suppress(EOFError, pickle.UnpicklingError):
                done.update(pickle.load(source))
            os.waitpid(pid, 0)
        ticket_file.close()
    return [done.get(i, ("error", (None, "worker process died"))) for i in range(len(seeds))]


def cmd_run(cfg: ExperimentConfig) -> int:
    task = resolve_task(cfg.task)
    ga_cfg = make_ga_config(cfg, task)
    record = ga_run(ga_cfg, task, cfg.base_seed)
    seed, bound = record.seed, genome_mod.rounding_error_bound(ga_cfg.codec, task)
    meta = cfg.metadata(seed=seed, rounding_bound=bound)
    generations = [(0, seed, g + 1, record.mean_fitness[g], record.fluctuation[g],
                    record.best_fitness_series[g]) for g in range(record.q_c)]
    summary = (0, seed, record.q_c, record.epsilon_opt, record.termination_reason,
               genome_mod.genome_to_field(record.best_genome, cfg.depth))
    # one generation per row, then a one-row summary section (run id 0)
    files.write_csv(os.path.join(cfg.out, f"run_{seed}.csv"), meta,
                    ("run_id,seed,generation,mean_fitness,fluctuation,best_fitness", generations),
                    ("run_id,seed,q_c,epsilon_opt,termination_reason,best_genome", [summary]))
    # bit strings as ordered lists, slot index then generator index
    files.write_json(os.path.join(cfg.out, f"genome_{seed}.json"), meta,
                     {"slots": genome_mod.genome_to_strings(record.best_genome, cfg.depth)})
    files.write_json(os.path.join(cfg.out, f"analysis_{seed}.json"), meta,
                     _analysis_payload(record, task, ga_cfg.codec, bound))
    print(
        f"run seed={record.seed}: {record.termination_reason} after {record.q_c} generations, "
        f"epsilon_opt = {record.epsilon_opt:.3e}"
    )
    return EXIT_OK if record.termination_reason == TERMINATED_CONVERGED else EXIT_FLAGGED


def _sweep(cfg: ExperimentConfig, task, label: str, prefix: str = "") -> int:
    """Run ``cfg.seeds`` seeds from ``cfg.base_seed``, write the runs, stats
    and (for qubit tasks) alpha-phi tables to ``cfg.out``, each name led by
    ``prefix``, and print a summary line led by ``label``.  A failed or lost
    run gets an ``error`` row, a row in a failures table and a stderr
    warning, and flags the exit code it returns; if every run failed, raises
    ``RuntimeError`` once the tables are written."""
    ga_cfg = make_ga_config(cfg, task)
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.seeds)
    results = run_many(ga_cfg, task, seeds, cfg.workers)
    meta = cfg.metadata()

    def path(name):
        return os.path.join(cfg.out, prefix + name)

    rows, records, alpha_phi, failures = [], [], [], []
    for i, (status, rec) in enumerate(results):
        if status != "ok":
            kind, message = rec
            rows.append((i, seeds[i], 0, math.nan, math.nan, "error", ""))
            failures.append((i, seeds[i], f"{kind}: {message}" if kind else message))
            print(f"warning: seed {seeds[i]}: {message}", file=sys.stderr)
            continue
        records.append(rec)
        field = genome_mod.genome_to_field(rec.best_genome, cfg.depth)
        rows.append((i, rec.seed, rec.q_c, rec.epsilon_opt, rec.best_fitness,
                     rec.termination_reason, field))
        if task.dim == 2:
            params = genome_mod.decode(rec.best_genome, ga_cfg.codec)
            u1 = tasks_mod.trainable_unitaries(task, params)[0]
            ps = analysis.prepared_state(u1, task.initial_state)
            alpha_phi.append((i, ps.alpha, ps.phi, rec.epsilon_opt))
    files.write_csv(path("runs.csv"), meta, (
        "run_id,seed,q_c,epsilon_opt,best_fitness,termination_reason,best_genome", rows))
    if records:
        mean, std, counts = analysis.ensemble_stats(records, cfg.horizon)
        files.write_csv(path("stats.csv"), meta, (
            "generation,mean_fitness,std_fitness,n",
            zip(range(1, len(mean) + 1), mean, std, counts)))
    if alpha_phi:
        files.write_csv(path("alpha_phi.csv"), meta, ("run_id,alpha,phi,epsilon_opt", alpha_phi))
    if failures:
        files.write_csv(path("failures.csv"), meta, ("run_id,seed,error", failures))
    capped = sum(r.termination_reason == TERMINATED_CAP for r in records)
    print(f"{label}: {len(records)}/{cfg.seeds} runs succeeded, {capped} at the generation cap,"
          f" results in {cfg.out}")
    if not records:
        raise RuntimeError(f"all runs failed for npop={cfg.npop}")
    return EXIT_OK if len(records) == cfg.seeds else EXIT_FLAGGED


def cmd_sweep(cfg: ExperimentConfig) -> int:
    return _sweep(cfg, resolve_task(cfg.task), "sweep")


def read_points(path):
    """The (eps, q) points in the ``epsilon_opt``/``q_c`` or ``epsilon``/``q``
    columns of the table at ``path``, less failed runs (a non-finite value) and,
    given a ``termination_reason`` column, runs that did not converge.  A short,
    long or unparsable row raises ``ValueError("<path>: data row N: ...")``."""
    table = files.read_table(path)
    if not table:
        raise ValueError(f"{path}: no data rows")
    header, rows = table[0], table[1:]
    pairs = [p for p in (("epsilon_opt", "q_c"), ("epsilon", "q")) if set(p) <= set(header)]
    if not pairs:
        raise ValueError(f"{path}: expected columns epsilon_opt/q_c or epsilon/q, got {header}")
    ei, qi = map(header.index, pairs[0])
    # a run stopped at the generation cap has no q_c of its own: the cap's
    ri = header.index("termination_reason") if "termination_reason" in header else None
    eps, q = [], []
    for n, cells in enumerate(rows, start=1):
        try:
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(cells)}")
            e_val, q_val = float(cells[ei]), float(cells[qi])
        except ValueError as exc:
            raise ValueError(f"{path}: data row {n}: {exc}") from None
        converged = ri is None or cells[ri] == TERMINATED_CONVERGED
        if converged and math.isfinite(e_val) and math.isfinite(q_val):  # a failed run writes nan
            eps.append(e_val)
            q.append(q_val)
    if not eps:
        raise ValueError(f"{path}: no usable data points")
    return np.array(eps), np.array(q)


def _fit_step(cfg: ExperimentConfig, path, bins: int, name: str, label: str, **source) -> int:
    """Fit the points :func:`read_points` reads from ``path``, put
    in ``bins`` equal-count bins first (0 fits them raw), write ``name`` in
    ``cfg.out``, print the verdict line led by ``label`` and return the exit
    code: flagged unless the fit converged and is identified."""
    eps, q = read_points(path)
    if bins > 0:
        eps, q = analysis.quantile_bins(eps, q, bins)
    fit = analysis.fit_exponential(eps, q)
    meta = cfg.metadata(bins=bins, n_points=len(eps), **source)
    files.write_csv(os.path.join(cfg.out, name), meta, (
        "a,b,c,a_err,b_err,c_err,rss,converged",
        [(fit.a, fit.b, fit.c, fit.a_err, fit.b_err, fit.c_err, fit.rss, fit.converged)]))
    print(
        f"{label}: {'' if fit.converged else 'NOT '}converged after {fit.n_iter} iterations, "
        f"{'' if fit.identified else 'NOT '}identified: "
        f"a = {fit.a:.4g} +- {fit.a_err:.2g}, b = {fit.b:.4g} +- {fit.b_err:.2g}, "
        f"c = {fit.c:.4g} +- {fit.c_err:.2g}"
    )
    return EXIT_OK if fit.converged and fit.identified else EXIT_FLAGGED


def cmd_fit(cfg: ExperimentConfig, input_path: str, bins: int) -> int:
    if bins < 0:
        raise ValueError(f"--bins must be >= 0, got {bins}")
    source = os.path.basename(input_path)
    files.check_metadata(f"input name {source!r}", source)
    return _fit_step(cfg, input_path, bins, "fit.csv", "fit", source=source)


def cmd_reproduce(cfg: ExperimentConfig, npops: list, figure: str) -> int:
    task = resolve_task(cfg.task)
    codes = []
    for npop in npops:
        prefix = "fig6_" if figure == "fig6" else f"{figure}_npop{npop}_"
        npop_cfg, label = replace(cfg, npop=npop), f"{figure}: npop={npop}"
        codes.append(_sweep(npop_cfg, task, label, prefix))
        if figure == "fig7":
            runs = os.path.join(cfg.out, f"{prefix}runs.csv")
            try:
                codes.append(_fit_step(npop_cfg, runs, 20, f"{prefix}fit.csv", f"{label}: fit"))
            except ValueError as exc:  # no, too few or all-equal points: this npop only
                print(f"{label}: fit skipped: {exc}")
                codes.append(EXIT_FLAGGED)
    return max(codes)


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
