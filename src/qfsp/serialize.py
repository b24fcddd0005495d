"""JSON encodings: complex entries are [re, im] pairs throughout."""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .phase_space import PhaseSpace
from .quasifree import QuasifreeForm

__all__ = [
    "encode_complex_matrix",
    "decode_complex_matrix",
    "encode_complex_vector",
    "decode_complex_vector",
    "encode_phase_space",
    "decode_phase_space",
    "encode_form",
    "decode_form",
    "load_json",
    "dump_json",
]


def encode_complex_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def decode_complex_matrix(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not a complex matrix: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError(
            f"complex matrix must be square with [re, im] entries; got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ParseError("complex matrix has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def encode_complex_vector(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex)
    return np.stack([v.real, v.imag], axis=-1).tolist()


def decode_complex_vector(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not a complex vector: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParseError("complex vector must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def encode_phase_space(ps: PhaseSpace) -> dict:
    return {
        "dim": ps.dim,
        "G": encode_complex_matrix(ps.G),
        "C": encode_complex_matrix(ps.C),
    }


def decode_phase_space(data) -> PhaseSpace:
    if not isinstance(data, dict) or not {"dim", "G", "C"} <= set(data):
        raise ParseError("phase space object needs keys dim, G, C")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ParseError(f"dim must be an integer; got {dim!r}")
    g = decode_complex_matrix(data["G"])
    c = decode_complex_matrix(data["C"])
    if g.shape[0] != dim:
        raise ParseError("declared dim does not match matrix size")
    return PhaseSpace(g, c)


def encode_form(form: QuasifreeForm) -> dict:
    return {
        "space": encode_phase_space(form.space),
        "Sigma": encode_complex_matrix(form.sigma),
    }


def decode_form(data) -> QuasifreeForm:
    if not isinstance(data, dict) or not {"space", "Sigma"} <= set(data):
        raise ParseError("quasifree form object needs keys space, Sigma")
    space = decode_phase_space(data["space"])
    sigma = decode_complex_matrix(data["Sigma"])
    if sigma.shape[0] != space.dim:
        raise ParseError("Sigma does not match the space dimension")
    return QuasifreeForm(space, sigma)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o)!r}")


def dump_json(obj, path: str | None = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return text
