"""Quasifree forms, their induced operators, purification and moments.

A quasifree form is a positive semi-definite hermitian matrix ``Sigma`` on a
phase space, constrained by ``Sigma - C^T conj(Sigma) conj(C) = G``.  From it
we derive the state Gram matrix ``G_S``, the induced operator ``S_op`` (self
adjoint for ``G_S``, spectrum in [0, 1]) and everything spectral: operator
functions, spectral projectors, the doubling that purifies a mixed form into
a basis projection on K + K, and the matching-sum (hafnian) moments.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .errors import (
    DegenerateFormError,
    InvalidArgumentError,
    SpectralSingularityError,
)
from .linalg import MetricCalculus, block_diag
from .phase_space import PhaseSpace, ValidationReport

__all__ = [
    "QuasifreeForm",
    "DoubledSpace",
    "validate_form",
    "spectral_split",
    "require_half_free",
    "chi",
    "rho",
    "double",
    "moment",
    "pairings",
    "symplectic_complement",
    "thermal_form",
    "fock_form",
    "transport_form",
    "direct_sum_form",
]

HALF_EIGENVALUE_TOL = 1e-9
# an S_op eigenvalue this close to 0 or 1 counts as 0 or 1
PROJECTION_TOL = 1e-10


class QuasifreeForm:
    """A phase space together with the two-point matrix ``Sigma``."""

    def __init__(self, space: PhaseSpace, sigma: np.ndarray):
        sigma = np.array(sigma, dtype=complex)
        if sigma.shape != (space.dim, space.dim):
            raise InvalidArgumentError("Sigma has wrong dimensions for the space")
        sigma.setflags(write=False)
        self.space = space
        self.sigma = sigma

    @cached_property
    def gram(self) -> np.ndarray:
        """State Gram matrix G_S = Sigma + C^T conj(Sigma) conj(C)."""
        C = self.space.C
        g = self.sigma + C.T @ np.conj(self.sigma) @ np.conj(C)
        g = 0.5 * (g + g.conj().T)
        g.setflags(write=False)
        return g

    @cached_property
    def calculus(self) -> MetricCalculus:
        try:
            return MetricCalculus(self.gram)
        except DegenerateFormError as exc:
            raise DegenerateFormError(
                "state Gram matrix G_S is not positive definite"
            ) from exc

    @cached_property
    def s_op(self) -> np.ndarray:
        """Induced operator S_op = G_S^-1 Sigma; raises if G_S is degenerate."""
        diag = self.calculus.diag
        if diag is not None:
            out = self.sigma / diag[:, None]
        else:
            out = np.linalg.solve(self.gram, self.sigma)
        out.setflags(write=False)
        return out

    @cached_property
    def gamma_s(self) -> np.ndarray:
        out = 2.0 * self.s_op - np.eye(self.space.dim)
        out.setflags(write=False)
        return out

    @cached_property
    def s_eig(self):
        """Spectrum of S_op (clamped to [0, 1]) and hermitian-side vectors."""
        vals, vecs = self.calculus.eigh(self.s_op)
        return np.clip(vals, 0.0, 1.0), vecs

    def fn_of_s(self, f) -> np.ndarray:
        vals, vecs = self.s_eig
        return self.calculus.fn_of_eig(vals, vecs, f(vals))

    def s_form(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Two-point value S(f, g) = f* Sigma g."""
        return complex(np.conj(f) @ (self.sigma @ g))

    def ip(self, f: np.ndarray, g: np.ndarray) -> complex:
        """State inner product (f, g)_S."""
        return complex(np.conj(f) @ (self.gram @ g))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(max(self.ip(f, f).real, 0.0)))

    def is_basis_projection(self, tol: float = PROJECTION_TOL) -> bool:
        vals, _ = self.s_eig
        return bool(np.all(np.minimum(vals, 1.0 - vals) <= tol))

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuasifreeForm(dim={self.space.dim})"


def validate_form(form: QuasifreeForm, tol: float = 1e-10) -> ValidationReport:
    """Check hermiticity, positivity, the defining relation and the induced
    operator laws; classify as BasisProjection / Mixed / Invalid."""
    sp = form.space
    sig = form.sigma
    scale = max(1.0, float(np.abs(sp.G).max()), float(np.abs(sig).max()))
    res = {}
    res["sigma_hermitian"] = float(np.linalg.norm(sig - sig.conj().T, 2)) / scale
    eig_sig = np.linalg.eigvalsh(0.5 * (sig + sig.conj().T))
    res["sigma_psd"] = float(max(0.0, -eig_sig.min())) / scale
    defect = sig - sp.C.T @ np.conj(sig) @ np.conj(sp.C) - sp.G
    res["defining_relation"] = float(np.linalg.norm(defect, 2)) / scale
    gram = form.gram
    eig_gram = np.linalg.eigvalsh(gram)
    if eig_gram.min() <= tol * scale:
        res["gram_positive"] = 1.0 + abs(float(eig_gram.min())) / scale
    else:
        res["gram_positive"] = 0.0

    classification = None
    if res["gram_positive"] == 0.0:
        s_op = form.s_op
        vals, _ = form.calculus.eigh(s_op, check=False)
        res["spectrum_in_unit_interval"] = float(
            max(0.0, -vals.min(), vals.max() - 1.0)
        )
        res["gamma_relation"] = float(
            np.linalg.norm(gram @ form.gamma_s - sp.G, 2)
        ) / scale
        res["conjugation_relation"] = float(
            np.linalg.norm(sp.conj_op(s_op) - (np.eye(sp.dim) - s_op), 2)
        )
        if np.all(np.minimum(np.abs(vals), np.abs(1.0 - vals)) <= tol):
            classification = "BasisProjection"
        else:
            classification = "Mixed"
    valid = all(v <= tol for v in res.values())
    if not valid:
        classification = "Invalid"
    return ValidationReport(residuals=res, valid=valid, classification=classification)


def spectral_split(form: QuasifreeForm):
    """G_S-orthogonal spectral projectors of S_op for {0}, {1} and (0, 1)."""
    vals, vecs = form.s_eig
    calc = form.calculus
    tol = PROJECTION_TOL
    e0 = calc.projector(vals, vecs, vals <= tol)
    e1 = calc.projector(vals, vecs, vals >= 1.0 - tol)
    emid = calc.projector(vals, vecs, (vals > tol) & (vals < 1.0 - tol))
    return e0, e1, emid


def require_half_free(form: QuasifreeForm):
    """Raise SpectralSingularityError for an S_op eigenvalue near 1/2."""
    vals, _ = form.s_eig
    bad = np.abs(vals - 0.5) < HALF_EIGENVALUE_TOL
    if bad.any():
        raise SpectralSingularityError(
            "S_op has an eigenvalue too close to 1/2",
            eigenvalue=float(vals[bad][0]),
        )


def chi_values(vals: np.ndarray) -> np.ndarray:
    """Per-eigenvalue chi for each row of a stack of S_op spectra, shape (n, d).

    Each spectrum is symmetric under s <-> 1 - s and chi is too; for an
    eigenvalue close to 1 the difference 1 - s has lost precision, so chi
    is taken from the paired small eigenvalue instead; an eigenvalue of
    exactly 1/2 gives inf.
    """
    d = vals.shape[-1]
    order = np.argsort(vals, axis=-1, kind="stable")
    rank = np.arange(d)
    small = np.take_along_axis(vals, order[:, np.minimum(rank, d - 1 - rank)], axis=-1)
    small = np.where(0.0 > small, 0.0, small)
    small = np.where(0.5 < small, 0.5, small)
    a = np.sqrt(small)
    b = np.sqrt(1.0 - small)
    with np.errstate(divide="ignore"):
        chi_sorted = np.where(b > a, np.log(b + a) - np.log(b - a), np.inf)
    out = np.empty_like(vals)
    np.put_along_axis(out, order, chi_sorted, axis=-1)
    return out


def chi(form: QuasifreeForm) -> np.ndarray:
    """arctanh(2 sqrt(S(1-S))) as an operator; finite away from spectrum 1/2."""
    require_half_free(form)
    vals, vecs = form.s_eig
    return form.calculus.fn_of_eig(vals, vecs, chi_values(vals[None])[0])


def rho(form: QuasifreeForm) -> np.ndarray:
    """Sign of 2S - 1 as an operator; an involution commuting with S_op."""
    require_half_free(form)
    vals, vecs = form.s_eig
    return form.calculus.fn_of_eig(vals, vecs, np.sign(2.0 * vals - 1.0))


class DoubledSpace:
    """Purification of a quasifree form on the doubled phase space K + K.

    The doubled form is always a basis projection; the embedded first copy
    carries the original state.
    """

    def __init__(self, base: QuasifreeForm, hat_space: PhaseSpace,
                 hat_form: QuasifreeForm):
        self.base = base
        self.hat_space = hat_space
        self.hat_form = hat_form

    def embed(self, f: np.ndarray) -> np.ndarray:
        """The isometry f -> f + 0 into the doubled space."""
        return np.concatenate([np.asarray(f, dtype=complex),
                               np.zeros(self.base.space.dim, dtype=complex)])

    def embed_op(self, h: np.ndarray) -> np.ndarray:
        """Block extension h -> diag(h, 0) acting on the doubled space."""
        d = self.base.space.dim
        out = np.zeros((2 * d, 2 * d), dtype=complex)
        out[:d, :d] = h
        return out

    def explicit_projection(self) -> np.ndarray:
        """Closed-form matrix of the doubled projection, for cross-checks.

        Valid when gamma_S is invertible (no eigenvalue of S_op at 1/2):
        rows gamma_S^-1 (S f + R g) and -gamma_S^-1 (R f + (1-S) g).
        """
        base = self.base
        s = base.s_op
        r = base.fn_of_s(lambda v: np.sqrt(np.clip(v * (1.0 - v), 0.0, None)))
        gam = base.gamma_s
        gi = np.linalg.inv(gam)
        top = np.hstack([gi @ s, gi @ r])
        bot = np.hstack([-gi @ r, -gi @ (np.eye(base.space.dim) - s)])
        return np.vstack([top, bot])


def double(form: QuasifreeForm) -> DoubledSpace:
    """Purify: build the doubled phase space and its basis-projection form."""
    sp = form.space
    d = sp.dim
    hat_g = block_diag(sp.G, -sp.G)
    hat_c = block_diag(sp.C, sp.C)
    hat_space = PhaseSpace(hat_g, hat_c)
    r = form.fn_of_s(lambda v: np.sqrt(np.clip(v * (1.0 - v), 0.0, None)))
    gram = form.gram
    top = np.hstack([gram @ form.s_op, gram @ r])
    bot = np.hstack([gram @ r, gram - gram @ form.s_op])
    hat_sigma = np.vstack([top, bot])
    hat_sigma = 0.5 * (hat_sigma + hat_sigma.conj().T)
    hat_form = QuasifreeForm(hat_space, hat_sigma)
    _ = hat_form.calculus  # raises DegenerateFormError at spectrum 1/2
    return DoubledSpace(base=form, hat_space=hat_space, hat_form=hat_form)


def pairings(indices: list[int]):
    """All perfect matchings of the index list, each pair (a, b) with a < b
    and first elements increasing."""
    if not indices:
        yield []
        return
    a = indices[0]
    for i in range(1, len(indices)):
        b = indices[i]
        rest = indices[1:i] + indices[i + 1:]
        for tail in pairings(rest):
            yield [(a, b)] + tail


def _matching_sum(a: np.ndarray) -> complex:
    """Sum over the perfect matchings of range(n) of prod a[i, j], i < j.

    This is the hafnian of the upper triangle of ``a``; the lower triangle
    is never read.  The memoized recursion over the bitmask of unmatched
    indices always pairs the lowest one, so it visits the Fibonacci number
    F(n + 1) of masks (610 at n = 14), each in O(n), where ``pairings``
    enumerates all (n - 1)!! matchings (135,135 at n = 14).
    """
    rows = np.asarray(a, dtype=complex).tolist()
    n = len(rows)

    @cache
    def f(mask: int) -> complex:
        if not mask:
            return 1.0 + 0.0j
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        total = 0.0 + 0.0j
        for j in range(i + 1, n):
            if rest >> j & 1:
                total += rows[i][j] * f(rest ^ (1 << j))
        return total

    return f((1 << n) - 1)


def moment(form: QuasifreeForm, vectors) -> complex:
    """Quasifree n-point function of field factors B(v_1) ... B(v_k).

    Odd k vanishes; even k is the sum over ordered pairings of the two-point
    values S(Gamma v_a, v_b), a < b: the hafnian of that upper-triangular
    matrix, which ``_matching_sum`` evaluates in O(k F(k + 1)) operations
    rather than one term per each of the (k - 1)!! pairings.
    """
    vecs = np.array(list(vectors), dtype=complex)
    if len(vecs) % 2 == 1:
        return 0.0 + 0.0j
    if not len(vecs):
        return 1.0 + 0.0j
    gammas = form.space.conjugate(vecs.T)  # column a is Gamma v_a
    return _matching_sum(np.conj(gammas.T) @ (form.sigma @ vecs.T))


def symplectic_complement(form: QuasifreeForm, vectors) -> list[np.ndarray]:
    """Real-linear basis of {f Gamma-fixed : (f, gamma_S g)_S = 0 for g in L}.

    Since G_S gamma_S = G this is the gamma-orthogonal complement within the
    Gamma-fixed real subspace.
    """
    sp = form.space
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    for v in vecs:
        if np.linalg.norm(sp.conjugate(v) - v) > 1e-8 * max(1.0, np.linalg.norm(v)):
            raise InvalidArgumentError("complement inputs must be Gamma-fixed")
    B = sp.real_basis
    d = sp.dim
    if not vecs:
        return [B[:, j] for j in range(d)]
    # constraint rows: sigma(g_i, B_j) over the real basis
    rows = np.array([[sp.sigma(g, B[:, j]) for j in range(d)] for g in vecs])
    _, s, vt = np.linalg.svd(rows)
    tol = max(rows.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int((s > tol).sum())
    null = vt[rank:].T  # real coefficient vectors
    return [B @ null[:, j] for j in range(null.shape[1])]


def thermal_form(space: PhaseSpace, nu) -> QuasifreeForm:
    """Occupation-nu thermal form on a standard Diagonal space.

    nu is a scalar or one value per mode; Sigma = diag(1 + nu_i, nu_i) per
    mode block, which satisfies the defining relation for the Diagonal
    presentation.
    """
    n = space.dim // 2
    nus = np.broadcast_to(np.asarray(nu, dtype=float), (n,))
    diag = []
    for v in nus:
        if v < 0:
            raise InvalidArgumentError("thermal occupation must be nonnegative")
        diag.extend([1.0 + v, v])
    return QuasifreeForm(space, np.diag(np.array(diag, dtype=complex)))


def fock_form(space: PhaseSpace) -> QuasifreeForm:
    """The vacuum basis projection: thermal occupation zero."""
    return thermal_form(space, 0.0)


def transport_form(form: QuasifreeForm, u: np.ndarray) -> QuasifreeForm:
    """Push a form through a Bogoliubov map: the new operator is U S_op U^dag.

    Matrix level: Sigma' = U^-* Sigma U^-1, so the transported state is the
    original composed with the inverse automorphism.
    """
    u = np.asarray(u, dtype=complex)
    ui = np.linalg.inv(u)
    sig = ui.conj().T @ form.sigma @ ui
    return QuasifreeForm(form.space, 0.5 * (sig + sig.conj().T))


def direct_sum_form(a: QuasifreeForm, b: QuasifreeForm) -> QuasifreeForm:
    """Block direct sum of two forms on the direct-sum phase space."""
    space = PhaseSpace(block_diag(a.space.G, b.space.G),
                       block_diag(a.space.C, b.space.C))
    return QuasifreeForm(space, block_diag(a.sigma, b.sigma))
