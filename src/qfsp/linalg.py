"""Metric-aware dense operator calculus.

Operators on the phase space are plain complex matrices; self-adjointness is
always relative to some positive definite Gram matrix (``G_S`` for the state
inner product, the phase-space form ``G`` for symplectic adjoints).  All
spectral computations on a metric-self-adjoint matrix go through a congruence
with the Cholesky factor of the metric, which turns the problem into an
ordinary hermitian one.  ``expm_apply`` applies the exponential of a
sparse matrix to a block of vectors without forming it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateFormError, InternalConsistencyError

__all__ = [
    "adjoint",
    "hs_norm",
    "op_norm",
    "MetricCalculus",
    "pairwise_sum",
    "expm_apply",
    "HERMITIZE_TOL",
    "PIVOT_RATIO_MIN",
]

# a metric whose smallest Cholesky pivot is at most this fraction of the
# largest is treated as singular
PIVOT_RATIO_MIN = 1e-14
# relative residual allowed when hermitizing a metric-self-adjoint matrix
HERMITIZE_TOL = 1e-8
# theta_m of Al-Mohy & Higham (2011), table 3.1, double precision: s steps of
# a degree-m Taylor polynomial reach unit roundoff once ||A||_1 <= s theta_m
_TAYLOR_THETA = {10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54,
                35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


def adjoint(a: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Adjoint of ``a`` with respect to ``<x, y> = x* metric y``.

    Equals ``metric^-1 a* metric``; an involution for hermitian ``metric``.
    """
    return np.linalg.solve(metric, a.conj().T @ metric)


def hs_norm(a: np.ndarray, metric: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(tr(a^dag a)) in the given metric."""
    val = np.trace(adjoint(a, metric) @ a)
    if val.real < 0 and val.real > -1e-12 * max(1.0, np.abs(a).max() ** 2):
        return 0.0
    return float(np.sqrt(val.real))


def _right_divide_upper(a: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """a @ inv(upper) for an upper-triangular matrix, without forming the inverse."""
    return sla.solve_triangular(upper.T, a.T, lower=True).T


def op_norm(a: np.ndarray, metric: np.ndarray) -> float:
    """Operator norm of ``a`` relative to the metric inner product."""
    lo = np.linalg.cholesky(metric)
    lt = lo.conj().T
    tilde = lt @ _right_divide_upper(a, lt)
    return float(np.linalg.norm(tilde, 2))


class MetricCalculus:
    """Spectral toolbox for matrices self-adjoint w.r.t. one fixed metric.

    The congruence ``A ~ L* A L^-*`` (``metric = L L*``) is hermitian exactly
    when ``A`` is metric-self-adjoint, so eigendecompositions, operator
    functions and spectral projectors are computed on the hermitian side and
    pulled back.

    ``diag`` is the metric's real diagonal when the metric is diagonal, else
    None; callers take broadcasting fast paths on it instead of testing the
    metric again.
    """

    def __init__(self, metric: np.ndarray):
        metric = np.asarray(metric, dtype=complex)
        if not np.isfinite(metric).all():
            raise DegenerateFormError("metric has non-finite entries")
        if np.linalg.norm(metric - metric.conj().T) > 1e-10 * max(
            1.0, np.abs(metric).max()
        ):
            raise DegenerateFormError("metric is not hermitian")
        try:
            self.lower = np.linalg.cholesky(metric)
        except np.linalg.LinAlgError as exc:
            raise DegenerateFormError("metric is not positive definite") from exc
        pivots = np.abs(np.diag(self.lower)) ** 2
        if pivots.min() <= PIVOT_RATIO_MIN * pivots.max():
            raise DegenerateFormError(
                "metric is numerically singular "
                f"(pivot ratio {pivots.min() / pivots.max():.3e})"
            )
        self.metric = metric
        self.dim = metric.shape[0]
        # diagonal metrics are common (standard thermal blocks); broadcasting
        # beats triangular solves there
        off = metric - np.diag(np.diag(metric))
        if np.abs(off).max() == 0.0:
            self.diag = np.diag(metric).real
            self._sqrt_diag = np.sqrt(self.diag)
        else:
            self.diag = self._sqrt_diag = None

    def to_hermitian(self, a: np.ndarray, check: bool = True) -> np.ndarray:
        if self._sqrt_diag is not None:
            tilde = (self._sqrt_diag[:, None] * a) / self._sqrt_diag[None, :]
        else:
            lt = self.lower.conj().T
            tilde = lt @ _right_divide_upper(a, lt)
        if check:
            herm_res = np.linalg.norm(tilde - tilde.conj().T)
            scale = max(1.0, np.linalg.norm(tilde))
            if herm_res > HERMITIZE_TOL * scale:
                raise InternalConsistencyError(
                    f"matrix is not metric-self-adjoint (residual {herm_res:.3e})"
                )
        return 0.5 * (tilde + tilde.conj().T)

    def from_hermitian(self, tilde: np.ndarray) -> np.ndarray:
        if self._sqrt_diag is not None:
            return (tilde / self._sqrt_diag[:, None]) * self._sqrt_diag[None, :]
        lt = self.lower.conj().T
        return sla.solve_triangular(lt, tilde @ lt, lower=False)

    def eigh(self, a: np.ndarray, check: bool = True):
        """Real spectrum and hermitian-side eigenvectors of a self-adjoint ``a``."""
        tilde = self.to_hermitian(a, check=check)
        off = tilde - np.diag(np.diag(tilde))
        if np.abs(off).max() == 0.0:
            vals = np.diag(tilde).real
            order = np.argsort(vals, kind="stable")
            return vals[order], np.eye(self.dim)[:, order].astype(complex)
        return np.linalg.eigh(tilde)

    def fn(self, a: np.ndarray, f, check: bool = True) -> np.ndarray:
        """Operator function ``f(a)`` through the metric eigendecomposition."""
        vals, vecs = self.eigh(a, check=check)
        return self.from_hermitian((vecs * f(vals)) @ vecs.conj().T)

    def fn_of_eig(self, vals: np.ndarray, vecs: np.ndarray, fvals) -> np.ndarray:
        return self.from_hermitian((vecs * fvals) @ vecs.conj().T)

    def projector(self, vals: np.ndarray, vecs: np.ndarray, mask) -> np.ndarray:
        """Metric-orthogonal spectral projector onto the masked eigenvalues."""
        sel = vecs[:, mask]
        return self.from_hermitian(sel @ sel.conj().T)

    def orthonormalize(self, columns: np.ndarray, tol: float = 1e-10):
        """Metric Gram-Schmidt over the columns, keeping pivot order.

        Returns the selected orthonormal columns.  Columns whose residual
        norm falls below ``tol`` times the largest initial norm are dropped.
        """
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim != 2 or cols.shape[1] == 0:
            return np.zeros((self.dim, 0), dtype=complex)
        norms0 = [np.sqrt(max(self._ip(c, c).real, 0.0)) for c in cols.T]
        scale = max(norms0) if norms0 else 0.0
        if scale == 0.0:
            return np.zeros((self.dim, 0), dtype=complex)
        kept = []
        for c in cols.T:
            w = c.copy()
            for _ in range(2):  # two rounds of MGS for orthogonality to ~1e-15
                for u in kept:
                    w = w - self._ip(u, w) * u
            nrm = np.sqrt(max(self._ip(w, w).real, 0.0))
            if nrm > tol * scale:
                kept.append(w / nrm)
        if not kept:
            return np.zeros((self.dim, 0), dtype=complex)
        return np.stack(kept, axis=1)

    def _ip(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(x.conj() @ (self.metric @ y))


def pairwise_sum(values) -> float:
    """Sum by a fixed-topology pairwise tree; bit-identical for a fixed order.

    Each level adds neighbours (v0 + v1, v2 + v3, ...) and carries an odd
    last value up unchanged, so the tree depends on the length alone.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while vals.size > 1:
            even = vals.size - vals.size % 2
            level = vals[0:even:2] + vals[1:even:2]
            vals = np.concatenate([level, vals[even:]]) if even < vals.size else level
    return float(vals[0])


def expm_apply(a, x: np.ndarray) -> np.ndarray:
    """exp(a) @ x for a sparse square ``a``, without forming exp(a).

    Algorithm 3.2 of Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011), as in
    scipy's ``expm_multiply``, with the Taylor degree and step count taken
    from the exact 1-norm of ``a`` only: ``expm_multiply`` refines them with
    randomized estimates drawn from numpy's global random state, so its last
    bits can change from run to run.
    """
    from scipy.sparse import identity

    out = np.asarray(x, dtype=complex)
    mu = a.diagonal().mean()
    a = a - mu * identity(a.shape[0], format="csr")
    norm = abs(a).sum(axis=0).max()
    degree, steps = min(((m, max(1, int(np.ceil(norm / theta))))
                         for m, theta in _TAYLOR_THETA.items()),
                        key=lambda ms: ms[0] * ms[1])
    for _ in range(steps):
        term, prev = out, np.linalg.norm(out, np.inf)
        for j in range(1, degree + 1):
            term = (a @ term) / (steps * j)
            size = np.linalg.norm(term, np.inf)
            out = out + term
            if prev + size <= 2.0 ** -53 * np.linalg.norm(out, np.inf):
                break
            prev = size
        out = np.exp(mu / steps) * out
    return out
