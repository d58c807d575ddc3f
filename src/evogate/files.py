"""Result-file formats and the flat key=value config format.

All CSV output is byte-stable: comma separators, '.' decimals, floats at 17
significant digits, LF line endings, one header row, and a leading metadata
block of '# key = value' comment lines.  Writers go through a temp file and
an atomic rename so consumers never see partial output.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from . import genome as genome_mod

__all__ = [
    "fmt",
    "parse_config_text",
    "read_points_csv",
    "write_alpha_phi_csv",
    "write_failures_csv",
    "write_fit_csv",
    "write_genome_json",
    "write_json",
    "write_run_csv",
    "write_runs_csv",
    "write_stats_csv",
    "write_text",
]

RUN_HEADER = "run_id,seed,generation,mean_fitness,fluctuation,best_fitness"
RUN_SUMMARY_HEADER = "run_id,seed,q_c,epsilon_opt,termination_reason,best_genome"
RUNS_HEADER = "run_id,seed,q_c,epsilon_opt,best_fitness,termination_reason,best_genome"
STATS_HEADER = "generation,mean_fitness,std_fitness,n"
ALPHA_PHI_HEADER = "run_id,alpha,phi,epsilon_opt"
FAILURES_HEADER = "run_id,seed,error"
FIT_HEADER = "a,b,c,a_err,b_err,c_err,rss,converged"


def fmt(value) -> str:
    """Canonical text for one CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _metadata_lines(metadata: dict) -> list[str]:
    lines = [f"# evogate {__version__}"]
    for key, value in metadata.items():
        lines.append(f"# {key} = {fmt(value)}")
    return lines


def write_text(path, text: str) -> None:
    """Write a file atomically (temp file in place, then rename), creating
    its directory if need be."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv(metadata: dict, *sections) -> str:
    """The metadata block, then each ``(header, rows)`` section in turn."""
    lines = _metadata_lines(metadata)
    for header, rows in sections:
        lines.append(header)
        lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_run_csv(path, record, depth: int, metadata: dict) -> None:
    """One generation per row, then a one-row summary section (run id 0)."""
    rows = [
        (0, record.seed, g + 1, record.mean_fitness[g], record.fluctuation[g],
         record.best_fitness_series[g])
        for g in range(record.q_c)
    ]
    summary = (0, record.seed, record.q_c, record.epsilon_opt, record.termination_reason,
               genome_mod.genome_to_field(record.best_genome, depth))
    write_text(path, _csv(metadata, (RUN_HEADER, rows), (RUN_SUMMARY_HEADER, [summary])))


def write_runs_csv(path, rows, metadata: dict) -> None:
    """Per-run summary table for a sweep (failed runs carry reason 'error')."""
    write_text(path, _csv(metadata, (RUNS_HEADER, rows)))


def write_stats_csv(path, generations, mean, std, counts, metadata: dict) -> None:
    rows = zip(generations, mean, std, counts)
    write_text(path, _csv(metadata, (STATS_HEADER, rows)))


def write_alpha_phi_csv(path, rows, metadata: dict) -> None:
    write_text(path, _csv(metadata, (ALPHA_PHI_HEADER, rows)))


def write_failures_csv(path, rows, metadata: dict) -> None:
    """The failed and lost runs of a sweep; ``error``, the last column, has
    each newline written as ``\\n``."""
    rows = [(run_id, seed, error.replace("\n", "\\n")) for run_id, seed, error in rows]
    write_text(path, _csv(metadata, (FAILURES_HEADER, rows)))


def write_fit_csv(path, fit, metadata: dict) -> None:
    row = (fit.a, fit.b, fit.c, fit.a_err, fit.b_err, fit.c_err, fit.rss, fit.converged)
    write_text(path, _csv(metadata, (FIT_HEADER, [row])))


def write_genome_json(path, codes: np.ndarray, depth: int, metadata: dict) -> None:
    """Genome file: bit strings as ordered lists, slot index then generator index."""
    write_json(path, {"metadata": {"version": __version__, **metadata},
                      "slots": genome_mod.genome_to_strings(codes, depth)})


def write_json(path, payload: dict) -> None:
    """``payload`` as indented JSON; numpy arrays and scalars are written as
    the lists and Python numbers their ``tolist()`` gives."""
    write_text(path, json.dumps(payload, indent=2, default=lambda o: o.tolist()) + "\n")


def read_points_csv(path):
    """Load (eps, q) pairs from a CSV with '#' metadata lines.

    Accepts either a sweep summary table (columns ``epsilon_opt`` and ``q_c``)
    or a plain two-column table named ``epsilon`` and ``q``.  A data row with
    the wrong cell count or an unparsable ``eps`` or ``q`` raises
    ``ValueError("<path>: data row N: ...")``, N counting from 1 after the
    header; a row with a non-finite value (a failed run) is skipped.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    header = lines[0].split(",")
    for eps_col, q_col in (("epsilon_opt", "q_c"), ("epsilon", "q")):
        if eps_col in header and q_col in header:
            ei, qi = header.index(eps_col), header.index(q_col)
            break
    else:
        raise ValueError(
            f"{path}: expected columns epsilon_opt/q_c or epsilon/q, got {header}"
        )
    eps, q = [], []
    for n, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(cells)}")
            e_val, q_val = float(cells[ei]), float(cells[qi])
        except ValueError as exc:
            raise ValueError(f"{path}: data row {n}: {exc}") from None
        if np.isfinite(e_val) and np.isfinite(q_val):  # a failed run writes nan
            eps.append(e_val)
            q.append(q_val)
    if not eps:
        raise ValueError(f"{path}: no usable data points")
    return np.array(eps), np.array(q)


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines ('#' comments and blanks allowed)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"config line {lineno}: empty key or value")
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out
