"""Byte format of the result files, and the readers of config and tables.

All CSV output is byte-stable: comma separators, '.' decimals, floats at 17
significant digits, LF line endings, and a leading metadata block of a
'# evogate <version>' line and '# key = value' comment lines; each section
of a table is one header row and its data rows.  A JSON file leads with the
same block as its "metadata" object.  A data cell's line breaks are
written as ``\\n`` and ``\\r``, and a cell holding ',' or '"' is RFC
4180-quoted, so a row keeps its line and its cell count.  Writers go through
a temp file and an atomic rename so consumers never see partial output, and
a failed write leaves neither file behind.  Which columns a table has is
declared where its rows are built (:mod:`evogate.cli`), not here.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress

import numpy as np

from . import __version__

__all__ = [
    "check_metadata",
    "fmt",
    "parse_config_text",
    "read_points_csv",
    "write_csv",
    "write_json",
    "write_text",
]


def fmt(value) -> str:
    """Canonical text for one CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def check_metadata(what: str, value) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``value``, as a metadata
    line writes it, has a UTF-8 form (a lone surrogate has none) and no line
    break, which would end its ``# key = value`` line early."""
    text = fmt(value)
    if "\n" in text or "\r" in text:
        raise ValueError(f"{what} holds a line break")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} cannot be written as UTF-8") from None


def _cell(value) -> str:
    """:func:`fmt` text as a data cell (a number is never escaped)."""
    text = fmt(value).replace("\n", "\\n").replace("\r", "\\r")
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_text(path, text: str) -> None:
    """Write a file atomically (temp file in place, then rename), creating
    its directory if need be.  If the write or the rename raises, the temp
    file is removed before the error propagates."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(path, metadata: dict, *sections) -> None:
    """The metadata block, then each ``(header, rows)`` section in turn: the
    header line as given, then one line of comma-separated cells per row."""
    lines = [f"# evogate {__version__}"]
    lines.extend(f"# {key} = {fmt(value)}" for key, value in metadata.items())
    for header, rows in sections:
        lines.append(header)
        lines.extend(",".join(map(_cell, row)) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def write_json(path, metadata: dict, payload: dict) -> None:
    """``{"metadata": {"version": ..., **metadata}, **payload}`` as indented
    JSON; numpy arrays and scalars are written as the lists and Python
    numbers their ``tolist()`` gives."""
    document = {"metadata": {"version": __version__, **metadata}, **payload}
    write_text(path, json.dumps(document, indent=2, default=lambda o: o.tolist()) + "\n")


def read_points_csv(path):
    """Load (eps, q) pairs from a CSV with '#' metadata lines.

    Accepts either a sweep summary table (columns ``epsilon_opt`` and ``q_c``)
    or a plain two-column table named ``epsilon`` and ``q``.  A data row with
    the wrong cell count or an unparsable ``eps`` or ``q`` raises
    ``ValueError("<path>: data row N: ...")``, N counting from 1 after the
    header; a row with a non-finite value (a failed run) is skipped, and so
    is, in a table with a ``termination_reason`` column, a run that did not
    converge.
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
    # a run stopped at the generation cap has no q_c of its own: the cap's
    ri = header.index("termination_reason") if "termination_reason" in header else None
    eps, q = [], []
    for n, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(cells)}")
            e_val, q_val = float(cells[ei]), float(cells[qi])
        except ValueError as exc:
            raise ValueError(f"{path}: data row {n}: {exc}") from None
        if ri is not None and cells[ri] != "converged":  # ga.TERMINATED_CONVERGED
            continue
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
