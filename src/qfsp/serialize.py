"""JSON encodings (complex entries as [re, im] pairs) and the report writer.

Byte-level contract: ``dump_json(obj)`` is ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False, default=_json_default)`` (2-space indent,
sorted keys, NaN and infinities refused), plus one trailing newline in a file.
Lists of exact ``float``s (``%r`` of an ``np.float64`` differs), or of
equal-length lists of them, fill one cached ``%r`` template.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

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


encode_complex_vector = encode_complex_matrix


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
    for kind, cast in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(o, kind):
            return cast(o)
    raise TypeError(f"not JSON serializable: {type(o)!r}")


def _wrap(items: list, level: int, brackets: str) -> str:
    indent = "\n" + "  " * (level + 1)
    return (brackets[0] + indent + ("," + indent).join(items)
            + "\n" + "  " * level + brackets[1]) if items else brackets


@functools.lru_cache(maxsize=256)
def _float_template(level: int, shape: tuple) -> str:
    item = _float_template(level + 1, shape[1:]) if shape[1:] else "%r"
    return _wrap([item] * shape[0], level, "[]")


def _encode_key(k) -> str:
    if k is None or isinstance(k, (str, int, float)):
        return _encode(k, 0) if isinstance(k, str) else f'"{_encode(k, 0)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _encode(o, level: int) -> str:
    """JSON text of ``o`` at indent ``level``, each item one level deeper."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    if isinstance(o, dict):
        return _wrap([_encode_key(k) + ": " + _encode(v, level + 1)
                      for k, v in sorted(o.items())], level, "{}")
    if not isinstance(o, (list, tuple)):
        return _encode(_json_default(o), level)
    flat, shape = o, (len(o),)
    if set(map(type, o)) == {list} and len(set(map(len, o))) == 1:
        flat, shape = tuple(chain.from_iterable(o)), (len(o), len(o[0]))
    if set(map(type, flat)) == {float}:
        text = _float_template(level, shape) % tuple(flat)
        if "n" not in text:  # of float reprs, only nan and inf spell an n
            return text
    return _wrap([_encode(v, level + 1) for v in o], level, "[]")


def dump_json(obj, path: str | None = None) -> str:
    text = _encode(obj, 0)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return text
