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


def _matrix_to_lists(M: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(M)]


def complex_pairs(values) -> list[list[float]]:
    """Complex numbers as ``[[re, im], ...]``, the report encoding."""
    return [[float(z.real), float(z.imag)] for z in values]


def _matrix_from_lists(data, rows: int, cols: int, name: str) -> np.ndarray:
    try:
        M = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r} is not a numeric matrix") from exc
    M = M.reshape(rows, cols) if M.size == rows * cols else M
    if M.shape != (rows, cols):
        raise ShapeMismatch(f"field {name!r} has shape {M.shape}, expected {(rows, cols)}")
    return M


def system_to_dict(sys: PHSystem, metadata: dict | None = None) -> dict:
    doc = {
        "n": sys.n,
        "m": sys.m,
        "E": _matrix_to_lists(sys.E),
        "J": _matrix_to_lists(sys.J),
        "R": _matrix_to_lists(sys.R),
        "G": _matrix_to_lists(sys.G),
        "P": _matrix_to_lists(sys.P),
        "D": _matrix_to_lists(sys.D),
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def system_from_dict(doc: dict) -> PHSystem:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("system document must carry integer fields 'n' and 'm'") from exc
    if n < 0 or m < 0:
        raise ValueError("dimensions must be nonnegative")
    matrices = {}
    for name, (r, c) in (("E", (n, n)), ("J", (n, n)), ("R", (n, n)),
                         ("G", (n, m)), ("P", (n, m)), ("D", (m, m))):
        if name not in doc:
            raise ValueError(f"system document is missing matrix {name!r}")
        matrices[name] = _matrix_from_lists(doc[name], r, c, name)
    S, N = sym_skew_split(matrices["D"])
    return PHSystem(E=matrices["E"], J=matrices["J"], R=matrices["R"],
                    G=matrices["G"], P=matrices["P"], S=S, N=N)


def save_system(path, sys: PHSystem, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(sys, metadata), fh, indent=2)
        fh.write("\n")


def load_system(path) -> PHSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))


def feedback_to_dict(F) -> dict:
    M = as_matrix(F)
    return {"m": M.shape[0], "n": M.shape[1], "F": _matrix_to_lists(M)}


def feedback_from_dict(doc: dict) -> np.ndarray:
    try:
        m = int(doc["m"])
        n = int(doc["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("feedback document must carry integer fields 'm' and 'n'") from exc
    if "F" not in doc:
        raise ValueError("feedback document is missing matrix 'F'")
    return _matrix_from_lists(doc["F"], m, n, "F")


def save_feedback(path, F) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(feedback_to_dict(F), fh, indent=2)
        fh.write("\n")


def load_feedback(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return feedback_from_dict(json.load(fh))


def report_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_report(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(doc))
