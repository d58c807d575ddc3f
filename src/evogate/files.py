"""Byte format of the result files, and the parsers of config and tables.

All CSV output is byte-stable: comma separators, '.' decimals, floats at 17
significant digits, LF line endings, and a leading metadata block of a
'# evogate <version>' line and '# key = value' comment lines; each section
of a table is one header row and its data rows.  A JSON file leads with the
same block as its "metadata" object.  A data cell's line breaks are
written as ``\\n`` and ``\\r``, and a cell holding ',' or '"' is RFC
4180-quoted, so a row keeps its line and its cell count.  Writers go through
a temp file and an atomic rename so consumers never see partial output, and
a failed write leaves neither file behind.  A table is parsed into rows of
cells; which columns it has is declared in :mod:`evogate.cli`, not here.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from contextlib import suppress

import numpy as np

from . import __version__

__all__ = [
    "check_metadata",
    "fmt",
    "parse_config_text",
    "read_table",
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


def read_table(path) -> list:
    """The rows of a CSV table (RFC 4180, as :mod:`csv` reads it), header
    first; '#' lines, blank lines and a leading byte-order mark are skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = itertools.chain([fh.readline().removeprefix("\ufeff")], fh)
        try:
            return list(csv.reader(ln for ln in lines if ln.strip() and not ln.startswith("#")))
        except csv.Error as exc:  # a cell over csv.field_size_limit(), say
            raise ValueError(f"{path}: {exc}") from None


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
