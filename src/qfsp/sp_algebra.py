"""Finite-rank symplectic Lie algebra elements and their second quantization.

A Hamiltonian is a matrix H with gamma_adjoint(H) = H and Gamma H Gamma = -H.
Its bilinear quantization is q(H) = (1/2) sum_j B(f_j) B(g_j)^* over any rank
decomposition H f = sum_j gamma(g_j, f) f_j; the result is independent of the
decomposition, which is asserted by tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .fock import FockOperator, TruncatedFock, _field_csr
from .linalg import expm_apply
from .phase_space import (
    PhaseSpace,
    ValidationReport,
    gamma_adjoint,
    symplectic_extension,
)

__all__ = [
    "Hamiltonian",
    "RankDecomposition",
    "validate_hamiltonian",
    "basis_hamiltonian",
    "rank_decompose",
    "quantize",
    "implementer",
    "lie_residual",
    "cyclic_span",
    "random_hamiltonian",
    "hamiltonian_projection",
]


@dataclass(frozen=True)
class Hamiltonian:
    """Matrix wrapper marking a validated sp element."""

    op: np.ndarray

    def __post_init__(self):
        m = np.array(self.op, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "op", m)


@dataclass(frozen=True)
class RankDecomposition:
    pairs: list  # list of (f_j, g_j) with H f = sum_j gamma(g_j, f) f_j

    def reconstruct(self, ps: PhaseSpace) -> np.ndarray:
        d = ps.dim
        out = np.zeros((d, d), dtype=complex)
        for f, g in self.pairs:
            out += np.outer(f, np.conj(ps.G @ g))
        return out


def validate_hamiltonian(ps: PhaseSpace, h, tol: float = 1e-10) -> ValidationReport:
    """Residuals of gamma-self-adjointness and Gamma-oddness."""
    m = h.op if isinstance(h, Hamiltonian) else np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    res = {
        "gamma_self_adjoint": float(np.linalg.norm(gamma_adjoint(ps, m) - m, 2))
        / scale,
        "gamma_odd": float(np.linalg.norm(ps.conj_op(m) + m, 2)) / scale,
    }
    return ValidationReport(residuals=res, valid=all(v <= tol for v in res.values()))


def hamiltonian_projection(ps: PhaseSpace, m: np.ndarray) -> Hamiltonian:
    """Project an arbitrary matrix onto the Hamiltonian conditions.

    The gamma-symmetrization and the Gamma-antisymmetrization commute, so
    the order does not matter.
    """
    m = np.asarray(m, dtype=complex)
    m = 0.5 * (m + gamma_adjoint(ps, m))
    m = 0.5 * (m - ps.conj_op(m))
    return Hamiltonian(m)


def random_hamiltonian(ps: PhaseSpace, rng, scale: float = 1.0) -> Hamiltonian:
    raw = rng.normal(size=(ps.dim, ps.dim)) + 1j * rng.normal(size=(ps.dim, ps.dim))
    h = hamiltonian_projection(ps, scale * raw / np.sqrt(ps.dim))
    return h


def _pair_generator(ps: PhaseSpace, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """H_{g,h} f = gamma(g,f) h + gamma(h,f) g + gamma(Gg,f) Gh + gamma(Gh,f) Gg."""
    gg, gh = ps.conjugate(g), ps.conjugate(h)
    out = np.outer(h, np.conj(ps.G @ g))
    out += np.outer(g, np.conj(ps.G @ h))
    out += np.outer(gh, np.conj(ps.G @ gg))
    out += np.outer(gg, np.conj(ps.G @ gh))
    return out


def basis_hamiltonian(ps: PhaseSpace, modes, kind: int, k: int, l: int) -> Hamiltonian:
    """The four spanning families built from a mode basis of P K.

    kind 1: H_{e_k, e_l}; kind 2: H_{e_k, Gamma e_l}; kind 3: H_{i e_k, e_l};
    kind 4: H_{i e_k, Gamma e_l}.  Indices are zero-based here.
    """
    modes = np.asarray(modes)
    m = modes.shape[1] if modes.ndim == 2 else len(modes)
    if kind not in (1, 2, 3, 4):
        raise InvalidArgumentError("kind must be 1..4")
    if not (0 <= k < m and 0 <= l < m):
        raise InvalidArgumentError("mode index out of range")
    ek = modes[:, k] if modes.ndim == 2 else modes[k]
    el = modes[:, l] if modes.ndim == 2 else modes[l]
    if kind == 1:
        g, h = ek, el
    elif kind == 2:
        g, h = ek, ps.conjugate(el)
    elif kind == 3:
        g, h = 1j * ek, el
    else:
        g, h = 1j * ek, ps.conjugate(el)
    return Hamiltonian(_pair_generator(ps, g, h))


def rank_decompose(ps: PhaseSpace, h: Hamiltonian,
                   tol: float = 1e-10) -> RankDecomposition:
    """Pairs (f_j, g_j) through a canonical basis of the envelope of range(H).

    With gamma(e_1, e_2) = i pattern on the extension basis,
    H f = i sum_j (gamma(H e_{2j}, f) e_{2j-1} - gamma(H e_{2j-1}, f) e_{2j}).
    """
    m = h.op
    norm = np.linalg.norm(m, 2)
    if norm <= tol:
        return RankDecomposition(pairs=[])
    cols = [m[:, j] for j in range(ps.dim)
            if np.linalg.norm(m[:, j]) > tol * norm]
    basis = symplectic_extension(ps, cols)
    pairs = []
    for j in range(len(basis) // 2):
        e_odd, e_even = basis[2 * j], basis[2 * j + 1]
        pairs.append((1j * e_odd, m @ e_even))
        pairs.append((-1j * e_even, m @ e_odd))
    return RankDecomposition(pairs=pairs)


def _quantize_csr(fk: TruncatedFock, h: Hamiltonian,
                  decomposition: RankDecomposition | None = None):
    """CSR matrix of q(H) = (1/2) sum_j B(f_j) B(Gamma g_j)."""
    from scipy.sparse import csr_matrix

    ps = fk.form.space
    dec = decomposition or rank_decompose(ps, h)
    out = csr_matrix((fk.dim, fk.dim), dtype=complex)
    for f, g in dec.pairs:
        out = out + _field_csr(fk, f) @ _field_csr(fk, ps.conjugate(g))
    return 0.5 * out


def quantize(fk: TruncatedFock, h: Hamiltonian,
             decomposition: RankDecomposition | None = None) -> FockOperator:
    """Bilinear Hamiltonian q(H) = (1/2) sum_j B(f_j) B(g_j)^* on the Fock model.

    B(g)^* is realized as B(Gamma g), which is the exact matrix adjoint in
    the occupation basis.
    """
    return FockOperator(_quantize_csr(fk, h, decomposition))


def implementer(fk: TruncatedFock, h: Hamiltonian) -> FockOperator:
    """Q(H) = exp(i q(H)); conjugation sends B(f) to B(e^{iH} f) on low sectors."""
    return FockOperator(expm_apply(1j * _quantize_csr(fk, h),
                                   np.eye(fk.dim, dtype=complex)))


def lie_residual(fk: TruncatedFock, h1: Hamiltonian, h2: Hamiltonian) -> float:
    """Norm of i[q(H), q(H')] - q(i[H, H']) on the sector cutoff - 4."""
    q1 = quantize(fk, h1).matrix
    q2 = quantize(fk, h2).matrix
    bracket = Hamiltonian(1j * (h1.op @ h2.op - h2.op @ h1.op))
    q12 = quantize(fk, bracket).matrix
    m = 1j * (q1 @ q2 - q2 @ q1) - q12
    return fk.restricted_norm(m, fk.cutoff - 4)


def cyclic_span(fk: TruncatedFock, generators, v: np.ndarray, degree: int,
                tol: float = 1e-9) -> int:
    """Dimension of span{ monomials of length <= degree in the generators
    applied to v }."""
    mats = [g.matrix if isinstance(g, FockOperator) else np.asarray(g, complex)
            for g in generators]
    vectors = [np.asarray(v, dtype=complex)]
    frontier = [vectors[0]]
    for _ in range(degree):
        nxt = []
        for w in frontier:
            for m in mats:
                nxt.append(m @ w)
        vectors.extend(nxt)
        frontier = nxt
        if not mats:
            break
    stack = np.stack(vectors, axis=0)
    svals = np.linalg.svd(stack, compute_uv=False)
    if svals.size == 0 or svals[0] == 0:
        return 0
    return int((svals > tol * svals[0]).sum())
