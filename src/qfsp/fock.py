"""Truncated bosonic Fock space over the range of a basis projection.

The occupation basis enumerates tuples (k_1, ..., k_m) with total particle
number at most N; the cutoff is on the total, because bilinear Hamiltonians
shift total number by at most two and that makes the truncation error
uniform.  Field and Weyl operators, exponential vectors, parity and number
structure, and tensor factorization checks live here.

Ladder operators, fields B(f) and symmetric powers Gamma(R) are assembled
as scipy CSR matrices, and a FockOperator stores that CSR form.  A dense
matrix is formed only on request, through ``FockOperator.matrix`` or
``create``/``annihilate``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial

import numpy as np

from .errors import InvalidArgumentError, NotAProjectionError
from .quasifree import QuasifreeForm

__all__ = [
    "TruncatedFock",
    "FockOperator",
    "build_fock",
    "field_operator",
    "weyl",
    "exponential_vector",
    "parity_split",
    "number_operator",
    "factorization_check",
    "second_quantize_unitary",
    "occupation_conjugation",
]


class FockOperator:
    """Operator on the occupation basis, optionally antilinear.

    It stores the form it was built from: CSR from the Fock assembly, or a
    dense array.  ``matrix`` is the dense view, formed on first use;
    ``apply`` and composition work on the stored form.  An antilinear
    operator acts as ``matrix @ conj(coefficients)``; composition tracks the
    flag (antilinear after antilinear is linear).
    """

    def __init__(self, matrix, antilinear: bool = False):
        if hasattr(matrix, "toarray"):  # scipy sparse
            self._op = matrix.astype(complex)
        else:
            self._op = self.matrix = np.asarray(matrix, dtype=complex)
        self.antilinear = bool(antilinear)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._op.toarray()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if self.antilinear:
            return self._op @ np.conj(vec)
        return self._op @ vec

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            rhs = other._op.conj() if self.antilinear else other._op
            return FockOperator(self._op @ rhs, self.antilinear != other.antilinear)
        return self.apply(np.asarray(other))

    def adjoint(self) -> "FockOperator":
        if self.antilinear:
            # adjoint of v -> M conj(v) in the antilinear sense is v -> M^T conj(v)
            return FockOperator(self._op.T, antilinear=True)
        return FockOperator(self._op.conj().T, antilinear=False)


class TruncatedFock:
    """Occupation-number model of the Fock space over P K."""

    def __init__(self, form: QuasifreeForm, cutoff: int, mode_basis: np.ndarray):
        self.form = form
        self.cutoff = int(cutoff)
        self.mode_basis = mode_basis  # columns are the (.,.)_P-orthonormal modes
        self.modes = mode_basis.shape[1]
        self.occupations = _occupation_tuples(self.modes, self.cutoff)
        self.index = {occ: i for i, occ in enumerate(self.occupations)}
        self.dim = len(self.occupations)

    @cached_property
    def totals(self) -> np.ndarray:
        return np.array([sum(occ) for occ in self.occupations])

    def sector_mask(self, max_total: int) -> np.ndarray:
        return self.totals <= max_total

    @cached_property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    @cached_property
    def _ladder_layout(self):
        """CSR layout of sum_i (c_i bdag_i + c_{m+i} b_i), shared by all c.

        bdag_i sends k to k + e_i with weight sqrt(k_i + 1) and b_i is its
        transpose; the 2m supports are disjoint, so entry e is
        ``c[which[e]] * weight[e]``.
        """
        rows, cols, which, weight = [], [], [], []
        for i, occ in enumerate(self.occupations):
            for mode in range(self.modes if sum(occ) < self.cutoff else 0):
                target = list(occ)
                target[mode] += 1
                j = self.index[tuple(target)]
                rows += [j, i]
                cols += [i, j]
                which += [mode, self.modes + mode]
                weight += [np.sqrt(occ[mode] + 1.0)] * 2
        rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=self.dim))])
        return np.array(which, dtype=int)[order], np.array(weight)[order], cols[order], indptr

    def _ladder_sum(self, coefs: np.ndarray):
        """CSR matrix of sum_i coefs[i] bdag_i + coefs[m + i] b_i."""
        from scipy.sparse import csr_matrix

        which, weight, cols, indptr = self._ladder_layout
        return csr_matrix((np.asarray(coefs)[which] * weight, cols, indptr),
                          shape=(self.dim, self.dim))

    def create(self, mode: int) -> np.ndarray:
        return self._ladder_sum(np.eye(2 * self.modes)[mode]).toarray()

    def annihilate(self, mode: int) -> np.ndarray:
        return self._ladder_sum(np.eye(2 * self.modes)[self.modes + mode]).toarray()

    def mode_coords(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of a vector of P K in the orthonormal mode basis."""
        return self.mode_basis.conj().T @ (self.form.gram @ np.asarray(v, complex))

    def restricted_norm(self, m: np.ndarray, max_total: int) -> float:
        """Spectral norm of the compression of ``m`` to the low sectors.

        Rows and columns are both restricted: near the cutoff the model is
        not trustworthy, so identities are asserted on the compressed block.
        """
        mask = self.sector_mask(max_total)
        return float(np.linalg.norm(m[np.ix_(mask, mask)], 2))

    def __repr__(self) -> str:  # pragma: no cover
        return f"TruncatedFock(modes={self.modes}, cutoff={self.cutoff}, dim={self.dim})"


def _occupation_tuples(modes: int, cutoff: int):
    """All tuples with nonnegative entries and total <= cutoff, ordered by
    total then lexicographically; index 0 is the vacuum."""
    out = []
    for total in range(cutoff + 1):
        for slots in combinations_with_replacement(range(modes), total):
            occ = [0] * modes
            for s in slots:
                occ[s] += 1
            out.append(tuple(occ))
    # combinations_with_replacement gives a deterministic but non-lex order
    # within a sector; sort for a stable, documented layout
    out.sort(key=lambda occ: (sum(occ), occ))
    return out


def build_fock(form: QuasifreeForm, cutoff: int,
               projection_tol: float = 1e-10) -> TruncatedFock:
    """Occupation model over the range of a basis-projection form.

    Mixed forms are rejected; purify with :func:`qfsp.quasifree.double`
    first.  The mode basis comes from Gram-Schmidt over the columns of the
    projection in their natural order, so it is reproducible.
    """
    if cutoff < 1:
        raise InvalidArgumentError("cutoff must be at least 1")
    if not form.is_basis_projection(projection_tol):
        raise NotAProjectionError(
            "form is Mixed; build the Fock space on its doubling instead"
        )
    calc = form.calculus
    rank = int(round(float(np.sum(form.s_eig[0] > 0.5))))
    basis = calc.orthonormalize(form.s_op, tol=1e-10)
    if basis.shape[1] != rank:
        raise InvalidArgumentError(
            f"mode basis rank {basis.shape[1]} does not match projection rank {rank}"
        )
    return TruncatedFock(form=form, cutoff=cutoff, mode_basis=basis)


def _field_csr(fk: TruncatedFock, f: np.ndarray):
    """CSR matrix of B(f) = creation(P f) + annihilation(P Gamma f)."""
    f = np.asarray(f, dtype=complex)
    p = fk.form.s_op
    return fk._ladder_sum(np.concatenate([
        fk.mode_coords(p @ f),
        np.conj(fk.mode_coords(p @ fk.form.space.conjugate(f))),
    ]))


def field_operator(fk: TruncatedFock, f: np.ndarray) -> FockOperator:
    """B(f) = creation(P f) + annihilation(P Gamma f), stored as CSR.

    Complex linear in f; the matrix adjoint is exactly the matrix of
    B(Gamma f) in the truncated basis.
    """
    return FockOperator(_field_csr(fk, f))


def weyl(fk: TruncatedFock, f: np.ndarray, tol: float = 1e-8) -> FockOperator:
    """exp(i B(f)) for a Gamma-fixed f, via the hermitian eigendecomposition."""
    f = np.asarray(f, dtype=complex)
    if np.linalg.norm(fk.form.space.conjugate(f) - f) > tol * max(
        1.0, np.linalg.norm(f)
    ):
        raise InvalidArgumentError("Weyl argument must be Gamma-fixed")
    b = field_operator(fk, f).matrix
    vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
    return FockOperator((vecs * np.exp(1j * vals)) @ vecs.conj().T)


def exponential_vector(fk: TruncatedFock, u: np.ndarray,
                       parity: str = "full") -> np.ndarray:
    """Truncated exponential vector of u in P K.

    Coefficient on occupation (k_1..k_m) is prod_i c_i^{k_i} / sqrt(k_i!)
    with c the mode coordinates of u.  The dropped tail has squared norm at
    most ||u||^(2(N+1)) e^(||u||^2) / (N+1)!, so keep ||u|| modest.  parity
    selects the full vector or its even / odd part.
    """
    if parity not in ("full", "even", "odd"):
        raise InvalidArgumentError("parity must be 'full', 'even' or 'odd'")
    c = fk.mode_coords(np.asarray(u, dtype=complex))
    out = np.zeros(fk.dim, dtype=complex)
    for i, occ in enumerate(fk.occupations):
        total = sum(occ)
        if parity == "even" and total % 2 == 1:
            continue
        if parity == "odd" and total % 2 == 0:
            continue
        coef = 1.0 + 0.0j
        for ci, ki in zip(c, occ):
            if ki:
                coef *= ci ** ki / np.sqrt(float(factorial(ki)))
        out[i] = coef
    return out


def parity_split(fk: TruncatedFock):
    """Diagonal projectors onto even and odd total occupation."""
    even = np.diag((fk.totals % 2 == 0).astype(float))
    odd = np.diag((fk.totals % 2 == 1).astype(float))
    return even, odd


def number_operator(fk: TruncatedFock) -> FockOperator:
    return FockOperator(np.diag(fk.totals.astype(float)).astype(complex))


def _sym_power_csr(fk: TruncatedFock, r: np.ndarray):
    """CSR matrix of the symmetric-power action of an m x m mode-space matrix.

    Column for occupation k is prod_i (sum_j r_ji bdag_j)^{k_i} / sqrt(k_i!)
    applied to the vacuum, which is the exact per-sector tensor power; no
    matrix logarithm is involved.  Each column is one creation step from a
    column of the sector below, so the result is built as diagonal blocks.
    """
    from scipy.sparse import block_diag

    r = np.asarray(r, dtype=complex)
    if r.shape != (fk.modes, fk.modes):
        raise InvalidArgumentError("mode matrix has wrong shape")
    transformed = [fk._ladder_sum(np.concatenate([r[:, i], np.zeros(fk.modes)]))
                   for i in range(fk.modes)]
    bounds = np.searchsorted(fk.totals, np.arange(fk.cutoff + 2))
    blocks = [np.ones((1, 1), dtype=complex)]
    for n in range(1, fk.cutoff + 1):
        lo, hi, prev_lo = bounds[n], bounds[n + 1], bounds[n - 1]
        steps = [t[lo:hi, prev_lo:lo] for t in transformed]
        block = np.empty((hi - lo, hi - lo), dtype=complex)
        for k, occ in enumerate(fk.occupations[lo:hi]):
            mode = max(i for i, c in enumerate(occ) if c > 0)
            prev = fk.index[occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]] - prev_lo
            block[:, k] = steps[mode] @ blocks[-1][:, prev] / np.sqrt(occ[mode])
        blocks.append(block)
    return block_diag(blocks, format="csr")


def second_quantize_unitary(fk: TruncatedFock, r: np.ndarray) -> FockOperator:
    """Symmetric-power action Gamma(r) of an m x m mode-space matrix."""
    return FockOperator(_sym_power_csr(fk, r))


def occupation_conjugation(fk: TruncatedFock) -> FockOperator:
    """The antilinear real structure fixed by the mode basis.

    Conjugates coefficients in the occupation basis; it fixes the vacuum,
    squares to the identity and conjugates every field matrix entrywise.
    """
    return FockOperator(np.eye(fk.dim, dtype=complex), antilinear=True)


def factorization_check(fk: TruncatedFock, group1, group2, samples,
                        rng=None) -> dict:
    """Verify the tensor factorization of exponential vectors.

    group1 and group2 partition the mode indices.  For sampled coefficient
    pairs (u1 on group1, u2 on group2) the occupation-index bijection must
    send e(u1 + u2) to e(u1) (x) e(u2), and the even / odd parts must follow
    the parity-block pattern.  Returns the maximal residuals.
    """
    group1, group2 = list(group1), list(group2)
    if sorted(group1 + group2) != list(range(fk.modes)):
        raise InvalidArgumentError("groups must partition the mode indices")
    rng = np.random.default_rng(0) if rng is None else rng
    fk1 = TruncatedFock(fk.form, fk.cutoff, fk.mode_basis[:, group1])
    fk2 = TruncatedFock(fk.form, fk.cutoff, fk.mode_basis[:, group2])
    res_full = 0.0
    res_parity = 0.0
    for u1c, u2c in samples if not isinstance(samples, int) else _coef_samples(
        rng, samples, len(group1), len(group2)
    ):
        u = fk.mode_basis[:, group1] @ np.asarray(u1c, complex) + \
            fk.mode_basis[:, group2] @ np.asarray(u2c, complex)
        e_joint = exponential_vector(fk, u)
        e1 = exponential_vector(fk1, fk1.mode_basis @ np.asarray(u1c, complex))
        e2 = exponential_vector(fk2, fk2.mode_basis @ np.asarray(u2c, complex))
        res_full = max(res_full, _tensor_residual(fk, fk1, fk2, group1, group2,
                                                  e_joint, e1, e2, None))
        for par, (p1, p2) in (("even", ("even", "even")), ("odd", ("even", "odd"))):
            e_par = exponential_vector(fk, u, parity=par)
            ea1 = exponential_vector(fk1, fk1.mode_basis @ np.asarray(u1c, complex), parity=p1)
            ea2 = exponential_vector(fk2, fk2.mode_basis @ np.asarray(u2c, complex), parity=p2)
            eb1 = exponential_vector(fk1, fk1.mode_basis @ np.asarray(u1c, complex), parity="odd")
            eb2 = exponential_vector(fk2, fk2.mode_basis @ np.asarray(u2c, complex),
                                     parity="odd" if par == "even" else "even")
            res_parity = max(
                res_parity,
                _tensor_residual(fk, fk1, fk2, group1, group2, e_par,
                                 ea1, ea2, (eb1, eb2)),
            )
    return {"max_residual": res_full, "max_parity_residual": res_parity}


def _coef_samples(rng, n, m1, m2):
    for _ in range(n):
        yield (rng.normal(size=m1) * 0.4 + 1j * rng.normal(size=m1) * 0.4,
               rng.normal(size=m2) * 0.4 + 1j * rng.normal(size=m2) * 0.4)


def _tensor_residual(fk, fk1, fk2, group1, group2, e_joint, e1, e2, extra):
    """Compare e_joint against the (sum of) tensor products on the joint basis."""
    res = 0.0
    for i, occ in enumerate(fk.occupations):
        occ1 = tuple(occ[g] for g in group1)
        occ2 = tuple(occ[g] for g in group2)
        val = e1[fk1.index[occ1]] * e2[fk2.index[occ2]]
        if extra is not None:
            val += extra[0][fk1.index[occ1]] * extra[1][fk2.index[occ2]]
        res = max(res, abs(e_joint[i] - val))
    return res
