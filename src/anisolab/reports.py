"""Report files: the CSV header of every report, the one CSV row writer, and
the ``summary.json`` serializer.

Cells are written as bools in lower case, ints and strings as they are, and
floats in full-precision scientific notation (``%.17e``), so repeated runs
of the same config produce byte-identical files.  A row whose cells all have
a %-format is written by one template, the same text as cell by cell.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["CSV_COLUMNS", "write_csv", "write_summary"]

CSV_COLUMNS = {
    "rate": ("epsilon", "e_x1", "e_x2", "e_l2", "bound", "verdict"),
    "ap_grid": ("epsilon", "n", "error"),
    "cea": ("dim", "galerkin_error", "best_error", "bound_rhs", "passed"),
    "resolvent": ("epsilon", "deviation"),
    "deviation_trace": ("epsilon", "t", "deviation"),
    "deviation_summary": ("epsilon", "D_sup", "slope"),
    "parabolic": ("epsilon", "initial_gap", "sup_deviation"),
    "grid": ("x1", "x2", "u"),
}


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17e}"
    if isinstance(value, (bool, np.bool_)):  # before int: bool is an int
        return str(bool(value)).lower()
    return str(value)


# cell type -> the %-format that writes it as ``_cell`` does; bools and
# other types are written by ``_cell``
_FORMATS = {float: "%.17e", np.float64: "%.17e", int: "%d", np.int64: "%d",
            str: "%s"}


def _template(types):
    """The %-format of a row of cells of these types, None if one has none."""
    formats = [_FORMATS.get(t) for t in types]
    return None if None in formats else ",".join(formats) + "\n"


def write_csv(path, report: str, rows):
    """Write the ``CSV_COLUMNS[report]`` header, then one line per row: by
    one %-format template for the cell types of the rows, so one per report
    whose rows all have the same types."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS[report]) + "\n")
        types = template = None
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            if kinds != types:
                types, template = kinds, _template(kinds)
            fh.write(template % row if template else ",".join(map(_cell, row)) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_summary(path, summary: dict):
    """Write ``summary`` as indented JSON with sorted keys, a non-finite
    number as ``null``, so that strict JSON readers accept the file."""
    payload = json.dumps(_jsonable(summary), sort_keys=True, indent=2,
                         allow_nan=False) + "\n"
    Path(path).write_text(payload)
