"""JSON serialization of systems, feedbacks, and reports.

A system file stores the feedthrough as the single matrix ``D = S + N`` and
the loader splits it canonically into symmetric and skew parts, so a file
can never carry an inconsistent (S, N) pair.  All numbers are written with
full round-trip precision.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ShapeMismatch
from .linalg import as_matrix, sym_skew_split
from .model import PHSystem


def matrix_to_lists(M: np.ndarray) -> list[list[float]]:
    """A matrix as row lists of Python floats, the file encoding."""
    return [[float(v) for v in row] for row in np.asarray(M)]


def finite_or_none(x) -> float | None:
    """A real as the report encoding: None where it is not finite, as the
    eigenvalue margins of an empty matrix are."""
    return float(x) if np.isfinite(x) else None


def complex_pairs(values) -> list[list[float]]:
    """Complex numbers as ``[[re, im], ...]``, the report encoding."""
    return [[float(z.real), float(z.imag)] for z in values]


def _dimensions(doc: dict, kind: str, first: str, second: str) -> tuple[int, int]:
    """The two dimension fields of doc, each a JSON integer: a float, a
    string or a boolean is refused, not converted."""
    dims = tuple(doc.get(name) if isinstance(doc, dict) else None for name in (first, second))
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValueError(f"{kind} document must carry integer fields "
                         f"{first!r} and {second!r}")
    return dims


def _matrix_field(doc: dict, kind: str, name: str, rows: int, cols: int) -> np.ndarray:
    if name not in doc:
        raise ValueError(f"{kind} document is missing matrix {name!r}")
    try:
        M = np.asarray(doc[name], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r} is not a numeric matrix") from exc
    if M.size == 0 and rows * cols == 0:  # an empty matrix may be written as []
        M = M.reshape(rows, cols)
    if M.shape != (rows, cols):
        raise ShapeMismatch(f"field {name!r} has shape {M.shape}, expected {(rows, cols)}")
    return M


def system_to_dict(sys: PHSystem, metadata: dict | None = None) -> dict:
    doc = {"n": sys.n, "m": sys.m}
    doc.update((name, matrix_to_lists(getattr(sys, name))) for name in "EJRGPD")
    if metadata:
        doc["metadata"] = metadata
    return doc


def system_from_dict(doc: dict) -> PHSystem:
    n, m = _dimensions(doc, "system", "n", "m")
    if n < 0 or m < 0:
        raise ValueError("dimensions must be nonnegative")
    matrices = {name: _matrix_field(doc, "system", name, r, c)
                for name, (r, c) in (("E", (n, n)), ("J", (n, n)), ("R", (n, n)),
                                     ("G", (n, m)), ("P", (n, m)), ("D", (m, m)))}
    S, N = sym_skew_split(matrices["D"])
    return PHSystem(E=matrices["E"], J=matrices["J"], R=matrices["R"],
                    G=matrices["G"], P=matrices["P"], S=S, N=N)


def save_system(path, sys: PHSystem, metadata: dict | None = None) -> None:
    write_report(path, system_to_dict(sys, metadata))


def load_system(path) -> PHSystem:
    return system_from_dict(_read_json(path))


def feedback_to_dict(F) -> dict:
    M = as_matrix(F)
    return {"m": M.shape[0], "n": M.shape[1], "F": matrix_to_lists(M)}


def feedback_from_dict(doc: dict) -> np.ndarray:
    m, n = _dimensions(doc, "feedback", "m", "n")
    return _matrix_field(doc, "feedback", "F", m, n)


def save_feedback(path, F) -> None:
    write_report(path, feedback_to_dict(F))


def load_feedback(path) -> np.ndarray:
    return feedback_from_dict(_read_json(path))


def report_to_json(doc: dict) -> str:
    """The text of every JSON file phdesc writes (:func:`write_report`):
    indent 2, one final newline.  A non-finite float raises ValueError, since
    ``Infinity`` and ``NaN`` are not JSON (RFC 8259)."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(doc))


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
