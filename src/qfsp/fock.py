"""Truncated bosonic Fock space over the range of a basis projection.

The occupation basis enumerates tuples (k_1, ..., k_m) with total particle
number at most N; the cutoff is on the total, because bilinear Hamiltonians
shift total number by at most two and that makes the truncation error
uniform.  Field and Weyl operators, exponential vectors, parity and number
structure, and tensor factorization checks live here.

Ladder operators, fields B(f) and normal-ordered quadratics are scipy CSR
matrices; a FockOperator stores that form.  A dense matrix is formed only
on request, through ``FockOperator.matrix`` or ``create``/``annihilate``.
A symmetric power Gamma(R) conserves particle number: ``_sym_power_apply``
builds its diagonal blocks only up to the operand's top sector, and
``_sym_power_csr`` assembles all of them for callers that need the whole
operator.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial

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
        self.occupations = _occupation_tuples(self.modes, self.cutoff)
        self.index = {occ: i for i, occ in enumerate(self.occupations)}
        self.dim = len(self.occupations)
        self._sym_power_layouts = {}  # sector -> _sym_power_layout(sector)

    @cached_property
    def totals(self) -> np.ndarray:
        return np.array([sum(occ) for occ in self.occupations])

    def sector_mask(self, max_total: int) -> np.ndarray:
        return self.totals <= max_total

    @cached_property
    def _sector_bounds(self) -> np.ndarray:
        """Sector n occupies the indices _sector_bounds[n]:_sector_bounds[n + 1]."""
        return np.searchsorted(self.totals, np.arange(self.cutoff + 2))

    def _sym_power_layout(self, n: int) -> list:
        """Column groups of sector n >= 1 for the symmetric-power blocks.

        One (mode, cols, parents, roots) per mode that is the last occupied
        mode of some occupation k in the sector: the in-sector columns of
        those k, the in-sector indices of k - e_mode one sector below, and
        sqrt(k_mode).  Built on first use of each sector and kept.
        """
        if n not in self._sym_power_layouts:
            lo, hi = self._sector_bounds[n], self._sector_bounds[n + 1]
            prev_lo = self._sector_bounds[n - 1]
            groups = {}
            for k, occ in enumerate(self.occupations[lo:hi]):
                mode = max(i for i, c in enumerate(occ) if c > 0)
                parent = occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]
                group = groups.setdefault(mode, ([], [], []))
                group[0].append(k)
                group[1].append(self.index[parent] - prev_lo)
                group[2].append(np.sqrt(occ[mode]))
            self._sym_power_layouts[n] = [
                (mode, np.array(cols), np.array(parents), np.array(roots))
                for mode, (cols, parents, roots) in sorted(groups.items())]
        return self._sym_power_layouts[n]

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


def _sym_power_blocks(fk: TruncatedFock, r: np.ndarray, top: int) -> list:
    """Dense diagonal blocks of Gamma(r) on the sectors 0..top.

    Column for occupation k is prod_i (sum_j r_ji bdag_j)^{k_i} / sqrt(k_i!)
    applied to the vacuum, which is the exact per-sector tensor power; no
    matrix logarithm is involved.  Each column is one creation step from a
    column of the sector below, taken along its last occupied mode, so one
    sparse product per mode fills all the columns of a sector that share it.
    """
    r = np.asarray(r, dtype=complex)
    if r.shape != (fk.modes, fk.modes):
        raise InvalidArgumentError("mode matrix has wrong shape")
    blocks = [np.ones((1, 1), dtype=complex)]
    if top < 1:
        return blocks
    transformed = [fk._ladder_sum(np.concatenate([r[:, i], np.zeros(fk.modes)]))
                   for i in range(fk.modes)]
    bounds = fk._sector_bounds
    for n in range(1, top + 1):
        lo, hi, prev_lo = bounds[n], bounds[n + 1], bounds[n - 1]
        block = np.empty((hi - lo, hi - lo), dtype=complex)
        for mode, cols, parents, roots in fk._sym_power_layout(n):
            block[:, cols] = transformed[mode][lo:hi, prev_lo:lo] \
                @ blocks[-1][:, parents] / roots
        blocks.append(block)
    return blocks


def _sym_power_csr(fk: TruncatedFock, r: np.ndarray):
    """CSR matrix of the symmetric-power action of an m x m mode-space
    matrix on every sector up to the cutoff, for callers that need the whole
    operator; :func:`_sym_power_apply` applies it to vectors."""
    from scipy.sparse import block_diag

    return block_diag(_sym_power_blocks(fk, r, fk.cutoff), format="csr")


def _sym_power_apply(fk: TruncatedFock, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gamma(r) @ x for a vector or a stack of columns x.

    Gamma(r) conserves particle number, so only the blocks up to the top
    sector of x's exactly nonzero rows are built; the rows above it are
    exactly zero.  Each block acts as CSR, so the result is bitwise equal to
    ``_sym_power_csr(fk, r) @ x``.
    """
    from scipy.sparse import csr_matrix

    x = np.asarray(x, dtype=complex)
    if len(x) != fk.dim:
        raise InvalidArgumentError("operand does not live on this Fock space")
    rows = np.flatnonzero(x.reshape(len(x), -1).any(axis=1))
    top = int(fk.totals[rows[-1]]) if rows.size else 0
    out = np.zeros_like(x)
    bounds = fk._sector_bounds
    for n, block in enumerate(_sym_power_blocks(fk, r, top)):
        sector = slice(bounds[n], bounds[n + 1])
        out[sector] = csr_matrix(block) @ x[sector]
    return out


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
