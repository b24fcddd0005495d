"""Bogoliubov machinery between basis projections.

Given two quasifree operators S, S' on the same phase space, the angle
operator theta solves sinh^2(theta) = -(S - S')^2; it commutes with S and is
self-adjoint for the S-metric whenever both inputs are idempotent.  From it
we build the canonical symplectic map U(S/S') moving S to S', its Fock-level
implementer, the vacuum overlap determinant, the polar decomposition inside
the restricted symplectic group, the d_P metric and the metaplectic section
with its sign cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GeometryError,
    InconclusiveError,
    InternalConsistencyError,
)
from .fock import FockOperator, TruncatedFock, _sym_power_apply
from .linalg import expm_apply, hs_norm, op_norm
from .phase_space import PhaseSpace, ValidationReport, gamma_adjoint
from .quasifree import QuasifreeForm, transport_form
from .sp_algebra import Hamiltonian, _quantize_csr

__all__ = [
    "SymplecticMap",
    "PolarParts",
    "validate_symplectic",
    "theta",
    "bogoliubov_u",
    "implement_T",
    "implement_T_apply",
    "vacuum_overlap",
    "polar",
    "dP_distance",
    "metaplectic",
    "metaplectic_apply",
    "cocycle_sign",
    "CocycleEstimate",
]

THETA_CLAMP_TOL = 1e-12
POLAR_CORNER_TOL = 1e-9
COCYCLE_FLOOR = 1e-10
COCYCLE_FIT_MAX = 1e-4


@dataclass(frozen=True)
class SymplecticMap:
    """gamma-preserving, Gamma-commuting invertible matrix."""

    u: np.ndarray

    def __post_init__(self):
        m = np.array(self.u, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "u", m)


@dataclass(frozen=True)
class PolarParts:
    positive: SymplecticMap  # the U(P/P')^dag factor, metric-positive
    rotation: SymplecticMap  # commutes with P, metric-unitary
    generator: Hamiltonian  # H(P/P') of the canonical move U(P/P') = exp(iH)


def validate_symplectic(ps: PhaseSpace, u, tol: float = 1e-9) -> ValidationReport:
    m = u.u if isinstance(u, SymplecticMap) else np.asarray(u, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(m, 2)) ** 2)
    res = {
        "gamma_preserving": float(
            np.linalg.norm(m.conj().T @ ps.G @ m - ps.G, 2)
        ) / (scale * max(1.0, float(np.abs(ps.G).max()))),
        "gamma_commuting": float(np.linalg.norm(ps.conj_op(m) - m, 2))
        / max(1.0, float(np.linalg.norm(m, 2))),
    }
    return ValidationReport(residuals=res, valid=all(v <= tol for v in res.values()))


def _angle_data(form: QuasifreeForm, other: QuasifreeForm):
    """Eigen-data of A = -(S - S')^2 in the G_S metric.

    A is G_S-self-adjoint whenever both operators are idempotent; the
    spectrum must be >= -THETA_CLAMP_TOL, tiny negatives are clamped,
    anything worse is a geometry error.
    """
    a = -(form.s_op - other.s_op) @ (form.s_op - other.s_op)
    calc = form.calculus
    try:
        vals, vecs = calc.eigh(a)
    except InternalConsistencyError as exc:
        raise GeometryError(
            "-(S - S')^2 is not self-adjoint for the S metric; "
            "inputs are not a valid projection pair"
        ) from exc
    scale = max(1.0, float(np.abs(vals).max()))
    if vals.min() < -THETA_CLAMP_TOL * scale:
        raise GeometryError(
            f"-(S - S')^2 has negative spectrum {vals.min():.3e}; "
            "inputs are not a valid projection pair"
        )
    return np.clip(vals, 0.0, None), vecs


def theta(form: QuasifreeForm, other: QuasifreeForm) -> np.ndarray:
    """Non-negative angle operator with sinh^2(theta) = -(S - S')^2."""
    vals, vecs = _angle_data(form, other)
    return form.calculus.fn_of_eig(vals, vecs, np.arcsinh(np.sqrt(vals)))


def bogoliubov_u(form: QuasifreeForm, other: QuasifreeForm):
    """Canonical symplectic map with U^dag S U = S', plus its generator.

    u12 = (sinh th cosh th)^+ S S' (1 - S), u21 = -(sinh th cosh th)^+
    (1 - S) S' S and H = -i th (u12 + u21); the pseudo-inverse lives on the
    complement of ker(theta), where the numerators vanish as well (checked).
    Returns (SymplecticMap, Hamiltonian).
    """
    import scipy.linalg as sla

    vals, vecs = _angle_data(form, other)
    calc = form.calculus
    th_vals = np.arcsinh(np.sqrt(vals))
    sc = np.sinh(th_vals) * np.cosh(th_vals)
    cut = np.sqrt(THETA_CLAMP_TOL)
    inv = np.where(sc > cut, 1.0 / np.where(sc > 0, sc, 1.0), 0.0)
    pinv_sc = calc.fn_of_eig(vals, vecs, inv)
    s, sp = form.s_op, other.s_op
    eye = np.eye(form.space.dim)
    num12 = s @ sp @ (eye - s)
    num21 = -(eye - s) @ sp @ s
    kernel_proj = calc.fn_of_eig(vals, vecs, (sc <= cut).astype(float))
    for num in (num12, num21):
        leak = np.linalg.norm(kernel_proj @ num, 2)
        if leak > 10.0 * cut * max(1.0, np.linalg.norm(num, 2)):
            raise InternalConsistencyError(
                f"Bogoliubov numerator does not vanish on ker(theta): {leak:.3e}"
            )
    u12 = pinv_sc @ num12
    u21 = pinv_sc @ num21
    th = calc.fn_of_eig(vals, vecs, th_vals)
    h = Hamiltonian(-1j * th @ (u12 + u21))
    u = SymplecticMap(sla.expm(1j * h.op))
    return u, h


def implement_T_apply(fk: TruncatedFock, form: QuasifreeForm,
                      other: QuasifreeForm, x: np.ndarray) -> np.ndarray:
    """T x for the implementer T = exp(-i q(H(S/S'))) of the move from S to S'.

    The exponential acts on the columns of x through the CSR q(H) (see
    :func:`qfsp.linalg.expm_apply`); T itself is never formed.
    """
    _, h = bogoliubov_u(form, other)
    return expm_apply(-1j * _quantize_csr(fk, h), x)


def implement_T(fk: TruncatedFock, form: QuasifreeForm,
                other: QuasifreeForm) -> FockOperator:
    """Fock implementer of the move from S to S'.

    T = exp(-i q(H(S/S'))), which satisfies T^* B(f) T = B(U(S/S') f) on low
    sectors; T Psi carries the moved vacuum with positive overlap against
    Psi.  The inverse-direction exponential is what makes the polar-composed
    implementer conjugate Weyl operators by U itself.
    """
    return FockOperator(implement_T_apply(fk, form, other,
                                          np.eye(fk.dim, dtype=complex)))


def vacuum_overlap(form: QuasifreeForm, other: QuasifreeForm) -> float:
    """det over range(S) of cosh(theta)^(-1/2); a value in (0, 1]."""
    vals, vecs = _angle_data(form, other)
    th_vals = np.arcsinh(np.sqrt(vals))
    # restrict to the range of S_op: theta commutes with S_op, so project the
    # hermitian-side eigenvectors of S_op and diagonalize theta there
    s_vals, s_vecs = form.s_eig
    range_vecs = s_vecs[:, s_vals > 0.5]
    th_herm = (vecs * th_vals) @ vecs.conj().T
    th_range = range_vecs.conj().T @ th_herm @ range_vecs
    mu = np.linalg.eigvalsh(0.5 * (th_range + th_range.conj().T))
    return float(np.prod(1.0 / np.sqrt(np.cosh(mu))))


def polar(ps: PhaseSpace, u: SymplecticMap, projection: QuasifreeForm) -> PolarParts:
    """Polar decomposition U = positive * rotation relative to a projection.

    positive is the inverse of the canonical move W from P to P' = U P U^dag
    and rotation = W U commutes with P; generator is the Hamiltonian of W,
    whose quantization gives the implementer T.  Also checks the corner identity
    P U (1-P) U^dag P = -sinh^2(theta) P.
    """
    m = u.u
    other = transport_form(projection, m)
    w, h = bogoliubov_u(projection, other)
    positive = np.linalg.inv(w.u)
    rotation = w.u @ m
    p = projection.s_op
    udag = gamma_adjoint(ps, m)
    eye = np.eye(ps.dim)
    corner = p @ m @ (eye - p) @ udag @ p
    # sinh^2(theta) = -(S - S')^2, the operator bogoliubov_u diagonalized
    diff = p - other.s_op
    ident_res = np.linalg.norm(corner - diff @ diff @ p, 2)
    if ident_res > POLAR_CORNER_TOL * max(1.0, np.linalg.norm(m, 2) ** 2):
        raise InternalConsistencyError(
            f"corner identity residual {ident_res:.3e} out of tolerance"
        )
    return PolarParts(positive=SymplecticMap(positive),
                      rotation=SymplecticMap(rotation), generator=h)


def dP_distance(ps: PhaseSpace, a: SymplecticMap, b: SymplecticMap,
                projection: QuasifreeForm) -> float:
    """Operator norm plus Hilbert-Schmidt corner norm of the difference."""
    diff = a.u - b.u
    gram = projection.gram
    p = projection.s_op
    eye = np.eye(ps.dim)
    corner = p @ diff @ (eye - p)
    return op_norm(diff, gram) + hs_norm(corner, gram)


def restricted_rotation(fk: TruncatedFock, rotation: SymplecticMap) -> np.ndarray:
    """Mode-basis matrix of a P-commuting rotation restricted to P K."""
    modes = fk.mode_basis
    r = modes.conj().T @ fk.form.gram @ (rotation.u @ modes)
    err = np.linalg.norm(r.conj().T @ r - np.eye(fk.modes), 2)
    if err > 1e-8:
        raise InternalConsistencyError(
            f"restricted rotation is not unitary (residual {err:.3e})"
        )
    return r


def metaplectic_apply(fk: TruncatedFock, u: SymplecticMap, x: np.ndarray) -> np.ndarray:
    """M x for the canonical implementer M = T(P, P') * Gamma(R(U)|_{P K}).

    The phase is pinned by the positive vacuum overlap of the T factor and
    the exact symmetric-power action of the rotation; M conjugates Weyl
    operators by U on low sectors.  Neither factor is formed densely:
    Gamma(R) is built only up to the top sector of x, and T is exp(-i q(H))
    with the generator H that :func:`polar` already built.
    """
    return _metaplectic_apply(fk, polar(fk.form.space, u, fk.form), x)


def _metaplectic_apply(fk: TruncatedFock, parts: PolarParts,
                       x: np.ndarray) -> np.ndarray:
    """T(P, P') Gamma(R) x from the polar parts of U; Gamma(R) is built only
    up to the top sector of x."""
    gamma_r_x = _sym_power_apply(fk, restricted_rotation(fk, parts.rotation), x)
    return expm_apply(-1j * _quantize_csr(fk, parts.generator), gamma_r_x)


def metaplectic(fk: TruncatedFock, u: SymplecticMap) -> FockOperator:
    """Dense matrix of the canonical implementer; see :func:`metaplectic_apply`."""
    return FockOperator(metaplectic_apply(fk, u, np.eye(fk.dim, dtype=complex)))


@dataclass(frozen=True)
class CocycleEstimate:
    raw: complex
    rounded: int
    modulus_defect: float
    imag_defect: float
    fit_residual: float


def cocycle_sign(fk: TruncatedFock, u1: SymplecticMap, u2: SymplecticMap,
                 sector: int | None = None) -> CocycleEstimate:
    """Scalar lambda with Q(U1) Q(U2) = lambda Q(U1 U2), from low sectors.

    The estimate is the least-squares ratio of the two matrices compressed
    to a low particle block (default: total occupation <= 8), each applied
    to the block's columns and never formed; it must have modulus one.
    Keep the cutoff well above the block so squeezing tails do not reach
    it.  Raises when the reference block cannot certify a ratio.
    """
    if sector is None:
        sector = min(8, fk.cutoff - 6)
    mask = fk.sector_mask(sector)
    cols = np.eye(fk.dim, dtype=complex)[:, mask]
    a = metaplectic_apply(fk, u1, metaplectic_apply(fk, u2, cols))[mask].ravel()
    b = metaplectic_apply(fk, SymplecticMap(u1.u @ u2.u), cols)[mask].ravel()
    denom = np.vdot(b, b).real
    if denom < COCYCLE_FLOOR:
        raise InconclusiveError("low-sector block is numerically empty")
    lam = complex(np.vdot(b, a) / denom)
    fit = float(np.linalg.norm(a - lam * b) / np.sqrt(denom))
    est = CocycleEstimate(
        raw=lam,
        rounded=1 if lam.real >= 0 else -1,
        modulus_defect=abs(abs(lam) - 1.0),
        imag_defect=abs(lam.imag),
        fit_residual=fit,
    )
    if fit > COCYCLE_FIT_MAX:
        raise InconclusiveError(
            f"cocycle ratio fit residual {fit:.3e}; increase the cutoff"
        )
    return est
