"""Finite-dimensional phase space (K, gamma, Gamma) for self-dual CCR data.

``K`` is C^d.  The non-degenerate hermitian form is ``gamma(f, g) = f* G g``
and the antilinear involution acts as ``Gamma f = C conj(f)``.  Every
antilinear map in the library follows that conjugate-then-multiply encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .linalg import adjoint, block_diag

__all__ = [
    "Presentation",
    "PhaseSpace",
    "ValidationReport",
    "build_standard",
    "validate_phase_space",
    "gamma_adjoint",
    "symplectic_extension",
]

# symplectic_extension's pivot threshold, relative to the largest sigma
PIVOT_TOL_FACTOR = 1e-10


class Presentation(Enum):
    DIAGONAL = "diagonal"
    POSITION = "position"


@dataclass(frozen=True)
class ValidationReport:
    """Named residuals of the structural invariants plus a verdict."""

    residuals: dict
    valid: bool
    classification: str | None = None

    def worst(self) -> float:
        return max(self.residuals.values(), default=0.0)


class PhaseSpace:
    """Container for (dim, G, C) with gamma- and Gamma-aware helpers."""

    def __init__(self, G: np.ndarray, C: np.ndarray):
        G = np.array(G, dtype=complex)
        C = np.array(C, dtype=complex)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape != C.shape:
            raise InvalidArgumentError("G and C must be square matrices of equal size")
        G.setflags(write=False)
        C.setflags(write=False)
        self.G = G
        self.C = C
        self.dim = G.shape[0]

    def gamma(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(np.conj(f) @ (self.G @ g))

    def conjugate(self, f: np.ndarray) -> np.ndarray:
        """Apply the antilinear involution Gamma."""
        return self.C @ np.conj(f)

    def conj_op(self, a: np.ndarray) -> np.ndarray:
        """Matrix of the linear map Gamma a Gamma."""
        return self.C @ np.conj(a) @ np.conj(self.C)

    def sigma(self, f: np.ndarray, g: np.ndarray) -> float:
        """Real symplectic form -i*gamma on Gamma-fixed vectors."""
        return float((-1j * self.gamma(f, g)).real)

    @cached_property
    def real_basis(self) -> np.ndarray:
        """Columns form a real-linear basis of Re K = {f : Gamma f = f}.

        Built by Gamma-symmetrizing the standard basis and keeping the
        real-linearly independent candidates, normalized; for the standard
        presentations (C a real permutation) the columns are Gamma-fixed to
        machine exactness.
        """
        cand = []
        for e in np.eye(self.dim, dtype=complex):
            cand.append(e + self.conjugate(e))
            cand.append(1j * e + self.conjugate(1j * e))
        picked = _prune_real_dependents(cand)
        if len(picked) != self.dim:
            raise DegenerateInputError("could not assemble a Gamma-fixed basis")
        return np.stack([v / np.linalg.norm(v) for v in picked], axis=1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PhaseSpace(dim={self.dim})"


def build_standard(n_modes: int, presentation: Presentation) -> PhaseSpace:
    """Standard phase space on C^(2n) in one of two presentations.

    Diagonal: per mode G = diag(+1, -1) with the swap conjugation, so the
    first basis vector of each mode is an annihilation-type direction.
    Position: C = 1 (plain conjugation) and per mode G = [[0, i], [-i, 0]],
    realizing gamma(e1, e2) = i on a Gamma-fixed pair.
    """
    if not isinstance(n_modes, int) or n_modes <= 0:
        raise InvalidArgumentError(f"n_modes must be a positive integer, got {n_modes!r}")
    if presentation == Presentation.DIAGONAL:
        g1 = np.diag([1.0, -1.0]).astype(complex)
        c1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    elif presentation == Presentation.POSITION:
        g1 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
        c1 = np.eye(2, dtype=complex)
    else:  # pragma: no cover
        raise InvalidArgumentError(f"unknown presentation {presentation!r}")
    G = block_diag(*([g1] * n_modes))
    C = block_diag(*([c1] * n_modes))
    return PhaseSpace(G, C)


def validate_phase_space(ps: PhaseSpace, tol: float = 1e-12) -> ValidationReport:
    """Residuals of hermiticity, the involution law, the sign relation and
    the (n, n) eigenvalue signature of G."""
    G, C = ps.G, ps.C
    scale = max(1.0, float(np.abs(G).max()))
    res = {
        "G_hermitian": float(np.linalg.norm(G - G.conj().T, 2)) / scale,
        "involution": float(np.linalg.norm(C @ np.conj(C) - np.eye(ps.dim), 2)),
        "sign_relation": float(np.linalg.norm(C.conj().T @ G @ C + np.conj(G), 2))
        / scale,
    }
    eig = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    near_zero = np.abs(eig) <= max(tol, 1e-13) * max(scale, 1.0)
    res["non_degenerate"] = 0.0 if not near_zero.any() else float(
        np.abs(eig[near_zero]).max() / scale + 1.0
    )
    n_pos = int((eig > 0).sum())
    n_neg = int((eig < 0).sum())
    balanced = (ps.dim % 2 == 0) and n_pos == n_neg == ps.dim // 2
    res["signature"] = 0.0 if (balanced and not near_zero.any()) else 1.0
    valid = all(v <= tol if k not in ("non_degenerate", "signature") else v == 0.0
                for k, v in res.items())
    return ValidationReport(residuals=res, valid=valid)


def gamma_adjoint(ps: PhaseSpace, a: np.ndarray) -> np.ndarray:
    """gamma-adjoint ``a^dag = G^-1 a* G``; satisfies gamma(a^dag f, g) = gamma(f, a g)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (ps.dim, ps.dim):
        raise InvalidArgumentError("operator has wrong dimension")
    return adjoint(a, ps.G)


def symplectic_extension(ps: PhaseSpace, vectors) -> list[np.ndarray]:
    """Gamma-fixed canonical basis of a gamma-non-degenerate envelope.

    Closes the input span under Gamma, rewrites it in Gamma-fixed real
    coordinates, and runs symplectic Gram-Schmidt over sigma = -i*gamma.
    When sigma degenerates on the working set, the partner is taken from the
    Gamma-fixed complement, which enlarges the envelope as needed.  The
    output e_1, ..., e_2k satisfies gamma(e_{2j-1}, e_{2j}) = i with all
    other pairings zero.
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        return []
    pool = []
    for v in vecs:
        pool.append(v + ps.conjugate(v))
        pool.append(1j * v + ps.conjugate(1j * v))
    pool = _prune_real_dependents(pool)
    full = [ps.real_basis[:, j] for j in range(ps.dim)]
    sigma_scale = max(
        (abs(ps.sigma(a, b)) for a in full for b in full), default=1.0
    )
    pivot_tol = PIVOT_TOL_FACTOR * max(sigma_scale, 1.0)

    def project_out_pairs(w, pairs):
        # remove the symplectic components along already fixed pairs (p, q),
        # each normalized to sigma(p, q) = 1
        for p, q in pairs:
            w = w - ps.sigma(p, w) * q + ps.sigma(q, w) * p
        return w

    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    while pool:
        u = pool.pop(0)
        nu = np.linalg.norm(u)
        if nu < 1e-14:
            continue
        u = u / nu
        pairings = [abs(ps.sigma(u, w)) for w in pool]
        if pairings and max(pairings) > pivot_tol:
            v = pool.pop(int(np.argmax(pairings)))
        else:
            cand = [project_out_pairs(w, pairs) for w in full]
            scored = [(abs(ps.sigma(u, w)), w) for w in cand]
            best, v = max(scored, key=lambda t: t[0])
            if best <= pivot_tol:
                raise DegenerateInputError(
                    "no symplectic partner found within tolerance", vector=u
                )
        s = ps.sigma(u, v)
        root = np.sqrt(abs(s))
        u = u / root
        v = np.sign(s) * v / root  # now sigma(u, v) = 1, i.e. gamma(u, v) = i
        for i, w in enumerate(pool):
            pool[i] = w - ps.sigma(u, w) * v + ps.sigma(v, w) * u
        pool = _prune_real_dependents(pool)
        pairs.append((u, v))
    basis: list[np.ndarray] = []
    for p, q in pairs:
        basis.extend([p, q])
    return basis


def _prune_real_dependents(pool) -> list[np.ndarray]:
    """Drop vectors that are real-linearly dependent on earlier pool entries."""
    kept = []
    rows = []
    for v in pool:
        r = np.concatenate([v.real, v.imag])
        nr = np.linalg.norm(r)
        if nr < 1e-13:
            continue
        q = r.copy()
        for u in rows:
            q = q - (u @ q) * u
        for u in rows:
            q = q - (u @ q) * u
        if np.linalg.norm(q) > 1e-10 * nr:
            kept.append(v)
            rows.append(q / np.linalg.norm(q))
    return kept
