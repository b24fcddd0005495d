"""Truncated bosonic Fock space over the range of a basis projection.

The occupation basis enumerates tuples (k_1, ..., k_m) with total particle
number at most N; the cutoff is on the total, because bilinear Hamiltonians
shift total number by at most two and that makes the truncation error
uniform.  Field and Weyl operators, exponential vectors, parity and number
structure, and tensor factorization checks live here.

The basis is one dim x m integer array, ``TruncatedFock.occ``, ordered by the
closed-form ``_occupation_rank``; the creation table and every layout below
are read from it by indexing.

Ladder operators, fields B(f) and normal-ordered quadratics are scipy CSR
matrices; a FockOperator stores that form.  A dense matrix is formed only
on request, through ``FockOperator.matrix`` or ``create``/``annihilate``.
A symmetric power Gamma(R) conserves particle number: ``_sym_power_apply``
builds its diagonal blocks only up to the operand's top sector, and
``second_quantize_unitary`` assembles all of them for callers that need the
whole operator.
"""

from __future__ import annotations

from functools import cached_property
from math import comb, factorial

import numpy as np

from .errors import InvalidArgumentError, NotAProjectionError
from .linalg import expm_apply
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

# relative distance from Gamma f to f that weyl accepts as Gamma-fixed
GAMMA_FIXED_TOL = 1e-8


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
        self.occ = _occupation_table(self.modes, self.cutoff)
        self.dim = len(self.occ)

    @cached_property
    def totals(self) -> np.ndarray:
        return self.occ.sum(axis=1)

    def sector_mask(self, max_total: int) -> np.ndarray:
        return self.totals <= max_total

    @cached_property
    def _sector_bounds(self) -> np.ndarray:
        """Sector n occupies the indices _sector_bounds[n]:_sector_bounds[n + 1]."""
        return np.searchsorted(self.totals, np.arange(self.cutoff + 2))

    @cached_property
    def creation(self) -> np.ndarray:
        """dim x m table: entry (i, j) is the index of occ[i] + e_j, or -1
        when occ[i] is in the top sector."""
        below = self._sector_bounds[self.cutoff]
        out = np.full((self.dim, self.modes), -1)
        for j, unit in enumerate(np.eye(self.modes, dtype=self.occ.dtype)):
            out[:below, j] = _occupation_rank(self.occ[:below] + unit)
        return out

    @cached_property
    def _gamma_parents(self):
        """Per occupation k: its last occupied mode, the index of k - e_last
        and sqrt(k_last).  Gamma(R) builds column k from column k - e_last;
        the entries of the vacuum (row 0) are not used."""
        last = self.modes - 1 - np.argmax(self.occ[:, ::-1] > 0, axis=1)
        step = np.eye(self.modes, dtype=self.occ.dtype)[last]
        step[0] = 0
        return (last, _occupation_rank(self.occ - step),
                np.sqrt(self.occ[np.arange(self.dim), last]))

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
        src, mode = np.nonzero(self.creation >= 0)
        dst = self.creation[src, mode]
        rows = np.column_stack([dst, src]).ravel()
        cols = np.column_stack([src, dst]).ravel()
        which = np.column_stack([mode, self.modes + mode]).ravel()
        weight = np.repeat(np.sqrt(self.occ[src, mode] + 1.0), 2)
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=self.dim))])
        return which[order], weight[order], cols[order], indptr

    @cached_property
    def _creation_layout(self):
        """The creation half of ``_ladder_layout``: (mode, weight, cols,
        indptr) of sum_i c_i bdag_i, each row's entries in the same order."""
        which, weight, cols, indptr = self._ladder_layout
        keep = which < self.modes
        ends = np.concatenate([[0], np.cumsum(keep)])
        return which[keep], weight[keep], cols[keep], ends[indptr]

    def _ladder_sum(self, coefs: np.ndarray):
        """CSR matrix of sum_i coefs[i] bdag_i + coefs[m + i] b_i."""
        from scipy.sparse import csr_matrix

        which, weight, cols, indptr = self._ladder_layout
        return csr_matrix((np.asarray(coefs)[which] * weight, cols, indptr),
                          shape=(self.dim, self.dim))

    def _quadratic(self, a, pair, unpair, const=0.0):
        """CSR matrix of sum_ik a_ik bdag_i b_k + pair_ik bdag_i bdag_k
        + unpair_ik b_i b_k + const.

        Products of truncated ladders in normal order are the exact
        compression on every sector; anti-normal b bdag would lose the top one.
        """
        from scipy.sparse import identity

        m = self.modes
        a, pair, unpair = (np.broadcast_to(c, (m, m)) for c in (a, pair, unpair))
        rows = np.block([[pair, a], [np.zeros((m, m)), unpair]])
        out = const * identity(self.dim, dtype=complex, format="csr")
        for unit, row in zip(np.eye(2 * m), rows):
            out = out + self._ladder_sum(unit) @ self._ladder_sum(row)
        return out

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


def _occupation_rank(occ: np.ndarray) -> np.ndarray:
    """Index of each occupation (last axis of ``occ``) in the order by total,
    then lexicographically.  With n = |k|, r_i = n - sum_{l<i} k_l and
    q_i = m - 1 - i, index(k) = C(n+m-1, m) + sum_i [C(r_i+q_i, q_i) -
    C(r_i-k_i+q_i, q_i)]: the occupations of lower total, then, mode by mode,
    those of total n that agree with k before mode i and hold fewer than k_i
    in it (the last mode's term is C(k_i, 0) - C(0, 0) = 0).
    """
    occ = np.asarray(occ)
    m = occ.shape[-1]
    total = occ.sum(axis=-1)
    top = int(total.max(initial=0))
    below = np.array([comb(n + m - 1, m) if n else 0 for n in range(top + 1)])
    # table[r, i] = C(r + q_i, q_i), read flat at r * m + i
    table = np.array([comb(r + m - 1 - i, m - 1 - i)
                      for r in range(top + 1) for i in range(m)], dtype=np.int64)
    r = total[..., None] - np.cumsum(occ, axis=-1) + occ
    modes = np.arange(m)
    return below[total] + (table[r * m + modes] - table[(r - occ) * m + modes]).sum(axis=-1)


def _occupation_table(modes: int, cutoff: int) -> np.ndarray:
    """All occupations with total <= cutoff as a dim x modes array, in the
    order of :func:`_occupation_rank`."""
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(modes):  # append every count of one more mode that fits
        room = cutoff + 1 - occ.sum(axis=1)
        start = np.repeat(np.cumsum(room) - room, room)
        occ = np.column_stack([np.repeat(occ, room, axis=0),
                               np.arange(start.size) - start])
    ordered = np.empty_like(occ)
    ordered[_occupation_rank(occ)] = occ
    return ordered


def build_fock(form: QuasifreeForm, cutoff: int) -> TruncatedFock:
    """Occupation model over the range of a basis-projection form.

    Mixed forms are rejected; purify with :func:`qfsp.quasifree.double`
    first.  The mode basis comes from Gram-Schmidt over the columns of the
    projection in their natural order, so it is reproducible.
    """
    if cutoff < 1:
        raise InvalidArgumentError("cutoff must be at least 1")
    if not form.is_basis_projection():
        raise NotAProjectionError(
            "form is Mixed; build the Fock space on its doubling instead"
        )
    calc = form.calculus
    rank = int(round(float(np.sum(form.s_eig[0] > 0.5))))
    basis = calc.orthonormalize(form.s_op)
    if basis.shape[1] != rank:
        raise InvalidArgumentError(
            f"mode basis rank {basis.shape[1]} does not match projection rank {rank}"
        )
    return TruncatedFock(form=form, cutoff=cutoff, mode_basis=basis)


def field_operator(fk: TruncatedFock, f: np.ndarray) -> FockOperator:
    """B(f) = creation(P f) + annihilation(P Gamma f), stored as CSR.

    Complex linear in f; the matrix adjoint is exactly the matrix of
    B(Gamma f) in the truncated basis.
    """
    f = np.asarray(f, dtype=complex)
    p = fk.form.s_op
    return FockOperator(fk._ladder_sum(np.concatenate([
        fk.mode_coords(p @ f),
        np.conj(fk.mode_coords(p @ fk.form.space.conjugate(f))),
    ])))


def weyl(fk: TruncatedFock, f: np.ndarray) -> FockOperator:
    """exp(i B(f)) for a Gamma-fixed f, by expm_apply on the CSR B(f)."""
    f = np.asarray(f, dtype=complex)
    if np.linalg.norm(fk.form.space.conjugate(f) - f) > GAMMA_FIXED_TOL * max(
        1.0, np.linalg.norm(f)
    ):
        raise InvalidArgumentError("Weyl argument must be Gamma-fixed")
    return FockOperator(expm_apply(1j * field_operator(fk, f)._op,
                                   np.eye(fk.dim, dtype=complex)))


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
    root_factorial = np.sqrt([float(factorial(k)) for k in range(fk.cutoff + 1)])
    out = np.prod(c ** fk.occ / root_factorial[fk.occ], axis=1)
    if parity != "full":
        out[fk.totals % 2 != (parity == "odd")] = 0.0
    return out


def parity_split(fk: TruncatedFock):
    """Diagonal projectors onto even and odd total occupation."""
    even = np.diag((fk.totals % 2 == 0).astype(float))
    odd = np.diag((fk.totals % 2 == 1).astype(float))
    return even, odd


def number_operator(fk: TruncatedFock) -> FockOperator:
    return FockOperator(np.diag(fk.totals.astype(float)).astype(complex))


def _sym_power_blocks(fk: TruncatedFock, r: np.ndarray, top: int) -> list:
    """Dense diagonal blocks of Gamma(r) on the sectors 0..top.

    Column for occupation k is prod_i (sum_j r_ji bdag_j)^{k_i} / sqrt(k_i!)
    applied to the vacuum, which is the exact per-sector tensor power; no
    matrix logarithm is involved.  Each column is one creation step from a
    column of the sector below, taken along its last occupied mode, so one
    sparse product per mode fills all the columns of a sector that share it.
    """
    from scipy.sparse import csr_matrix

    r = np.asarray(r, dtype=complex)
    if r.shape != (fk.modes, fk.modes):
        raise InvalidArgumentError("mode matrix has wrong shape")
    blocks = [np.ones((1, 1), dtype=complex)]
    if top < 1:
        return blocks
    # row k of sum_j r_ji bdag_j holds entries only in the columns of the
    # sector below k, so a sector's rows are read straight from the arrays
    mode_of, weight, cols, indptr = fk._creation_layout
    transformed = [r[mode_of, i] * weight for i in range(fk.modes)]
    last, parents, roots = fk._gamma_parents
    bounds = fk._sector_bounds
    for n in range(1, top + 1):
        lo, hi, prev_lo = bounds[n], bounds[n + 1], bounds[n - 1]
        start, stop = indptr[lo], indptr[hi]
        below = (cols[start:stop] - prev_lo, indptr[lo:hi + 1] - start)
        block = np.empty((hi - lo, hi - lo), dtype=complex)
        for mode, data in enumerate(transformed):
            group = np.flatnonzero(last[lo:hi] == mode)
            step = csr_matrix((data[start:stop], *below), shape=(hi - lo, lo - prev_lo))
            block[:, group] = step @ blocks[-1][:, parents[lo + group] - prev_lo] \
                / roots[lo + group]
        blocks.append(block)
    return blocks


def _gamma_csr(fk: TruncatedFock, r: np.ndarray, top: int):
    """Gamma(r) on the sectors 0..top as one CSR, each row's nonzeros in
    column order: the layout of scipy's ``block_diag`` of the blocks."""
    from scipy.sparse import csr_matrix

    bounds = fk._sector_bounds
    data, cols, counts = [], [], []
    for lo, block in zip(bounds, _sym_power_blocks(fk, r, top)):
        nonzero = block != 0
        data.append(block[nonzero])
        cols.append(np.nonzero(nonzero)[1] + lo)
        counts.append(nonzero.sum(axis=1))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    end = bounds[top + 1]
    return csr_matrix((np.concatenate(data), np.concatenate(cols), indptr),
                      shape=(end, end))


def _sym_power_apply(fk: TruncatedFock, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gamma(r) @ x for a vector or a stack of columns x.

    Gamma(r) conserves particle number, so only the blocks up to the top
    sector of x's exactly nonzero rows are built, and applied as one CSR
    product; the rows above it are exactly zero.  The result is bitwise
    equal to ``second_quantize_unitary(fk, r) @ x``.
    """
    x = np.asarray(x, dtype=complex)
    if len(x) != fk.dim:
        raise InvalidArgumentError("operand does not live on this Fock space")
    rows = np.flatnonzero(x.reshape(len(x), -1).any(axis=1))
    gamma = _gamma_csr(fk, r, int(fk.totals[rows[-1]]) if rows.size else 0)
    end = gamma.shape[0]
    out = np.zeros_like(x)
    out[:end] = gamma @ x[:end]
    return out


def second_quantize_unitary(fk: TruncatedFock, r: np.ndarray) -> FockOperator:
    """Symmetric-power action Gamma(r) of an m x m mode-space matrix on every
    sector up to the cutoff, stored as CSR; :func:`_sym_power_apply` applies
    it to vectors without building it whole."""
    return FockOperator(_gamma_csr(fk, r, fk.cutoff))


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
    # joint occupation i is occupation i1[i] on group1 and i2[i] on group2
    i1 = _occupation_rank(fk.occ[:, group1])
    i2 = _occupation_rank(fk.occ[:, group2])
    res_full = res_parity = 0.0
    for u1c, u2c in samples if not isinstance(samples, int) else _coef_samples(
        rng, samples, len(group1), len(group2)
    ):
        u1 = fk1.mode_basis @ np.asarray(u1c, complex)
        u2 = fk2.mode_basis @ np.asarray(u2c, complex)
        even1, odd1 = (exponential_vector(fk1, u1, p)[i1] for p in ("even", "odd"))
        even2, odd2 = (exponential_vector(fk2, u2, p)[i2] for p in ("even", "odd"))
        full, even, odd = (exponential_vector(fk, u1 + u2, p)
                           for p in ("full", "even", "odd"))
        res_full = max(res_full, np.abs(full - (even1 + odd1) * (even2 + odd2)).max())
        res_parity = max(res_parity,
                         np.abs(even - (even1 * even2 + odd1 * odd2)).max(),
                         np.abs(odd - (even1 * odd2 + odd1 * even2)).max())
    return {"max_residual": float(res_full), "max_parity_residual": float(res_parity)}


def _coef_samples(rng, n, m1, m2):
    for _ in range(n):
        yield (rng.normal(size=m1) * 0.4 + 1j * rng.normal(size=m1) * 0.4,
               rng.normal(size=m2) * 0.4 + 1j * rng.normal(size=m2) * 0.4)
