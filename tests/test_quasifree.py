import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfsp import (
    DegenerateFormError,
    Presentation,
    QuasifreeForm,
    SpectralSingularityError,
    build_standard,
    chi,
    double,
    moment,
    rho,
    spectral_split,
    symplectic_complement,
    validate_form,
)
from qfsp.fock import build_fock, field_operator
from qfsp.quasifree import (
    _matching_sum,
    chi_values,
    direct_sum_form,
    fock_form,
    pairings,
    thermal_form,
    transport_form,
)
from conftest import squeeze


def test_fock_form_is_basis_projection(diag1):
    f = fock_form(diag1)
    rep = validate_form(f)
    assert rep.valid and rep.classification == "BasisProjection"
    assert np.allclose(f.s_op, np.diag([1.0, 0.0]))
    assert np.allclose(f.gram, np.eye(2))
    assert np.allclose(f.gamma_s, np.diag([1.0, -1.0]))


def test_thermal_quarter_frozen_values(diag1):
    # Sigma = diag(1.25, 0.25) gives S_op = diag(5/6, 1/6), G_S = 1.5 I
    f = thermal_form(diag1, 0.25)
    rep = validate_form(f)
    assert rep.valid and rep.classification == "Mixed"
    assert np.allclose(f.s_op, np.diag([5.0 / 6.0, 1.0 / 6.0]))
    assert np.allclose(f.gram, 1.5 * np.eye(2))


def test_zero_sigma_invalid(diag1):
    rep = validate_form(QuasifreeForm(diag1, np.zeros((2, 2))))
    assert not rep.valid and rep.classification == "Invalid"
    assert rep.residuals["defining_relation"] > 0.4


def test_thermal_spectrum_closed_form(diag1):
    for nu in (0.1, 0.7, 3.0):
        f = thermal_form(diag1, nu)
        vals = np.sort(f.s_eig[0])
        expect = np.sort([(1 + nu) / (1 + 2 * nu), nu / (1 + 2 * nu)])
        assert np.allclose(vals, expect, atol=1e-13)


def test_spectrum_always_in_unit_interval(diag2, rng):
    for _ in range(5):
        nus = rng.uniform(0, 4, size=2)
        f = thermal_form(diag2, nus)
        vals, _ = f.s_eig
        assert vals.min() >= -1e-14 and vals.max() <= 1 + 1e-14


def test_spectral_split_fock_and_thermal(diag1):
    e0, e1, emid = spectral_split(fock_form(diag1))
    assert np.allclose(e0 + e1, np.eye(2)) and np.linalg.norm(emid) == 0.0
    e0, e1, emid = spectral_split(thermal_form(diag1, 0.5))
    assert np.allclose(emid, np.eye(2))
    assert np.linalg.norm(e0) == np.linalg.norm(e1) == 0.0


def test_spectral_split_mixed_block_ranks(diag1):
    mixed = direct_sum_form(fock_form(diag1), thermal_form(diag1, 0.8))
    e0, e1, emid = spectral_split(mixed)
    ranks = [int(round(np.trace(p).real)) for p in (e0, e1, emid)]
    assert ranks == [1, 1, 2]
    assert np.allclose(e0 + e1 + emid, np.eye(4))


def test_chi_rho_fock(diag1):
    f = fock_form(diag1)
    assert np.linalg.norm(chi(f)) < 1e-14
    assert np.allclose(rho(f), f.gamma_s)


def test_chi_rho_thermal_closed_form(diag1):
    tau = 0.45
    f = thermal_form(diag1, np.sinh(tau) ** 2)
    assert np.allclose(chi(f), 2 * tau * np.eye(2), atol=1e-12)
    r = rho(f)
    assert np.allclose(r @ r, np.eye(2), atol=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvals(r).real), [-1.0, 1.0])


def test_chi_rho_commute_with_s(diag2, rng):
    f = thermal_form(diag2, [0.3, 1.2])
    u = rng.normal(size=(4, 4))
    for op in (chi(f), rho(f)):
        assert np.linalg.norm(op @ f.s_op - f.s_op @ op) < 1e-10
    assert np.linalg.norm(chi(f) @ rho(f) - rho(f) @ chi(f)) < 1e-10


def test_chi_rho_half_eigenvalue_rejected(diag1):
    # an eigenvalue exactly at 1/2 would make gamma degenerate, so it cannot
    # occur; the exclusion triggers on numerical proximity, reached here by
    # an extreme thermal occupation
    f = thermal_form(diag1, 1e10)
    assert validate_form(f).valid
    with pytest.raises(SpectralSingularityError):
        chi(f)
    with pytest.raises(SpectralSingularityError):
        rho(f)


def test_double_is_projection_and_matches_formula(diag1):
    for nu in (0.25, 1.0, 4.0):
        dd = double(thermal_form(diag1, nu))
        rep = validate_form(dd.hat_form)
        assert rep.valid and rep.classification == "BasisProjection"
        p = dd.hat_form.s_op
        assert np.linalg.norm(p @ p - p, 2) <= 1e-12
        assert np.linalg.norm(p - dd.explicit_projection(), 2) <= 1e-12


def test_double_norm_identity(diag1, rng):
    f = thermal_form(diag1, 0.25)
    dd = double(f)
    sq = f.fn_of_s(np.sqrt)
    sq1m = f.fn_of_s(lambda v: np.sqrt(1.0 - v))
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = dd.hat_form.ip(np.concatenate([a, b]), np.concatenate([a, b])).real
        rhs = f.ip(sq @ a + sq1m @ b, sq @ a + sq1m @ b).real
        rhs += f.ip(sq1m @ a + sq @ b, sq1m @ a + sq @ b).real
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


def test_double_fock_complement_is_zero_sector(diag1):
    """Doubling a pure form adds a decoupled copy of the kernel modes."""
    dd = double(fock_form(diag1))
    p = dd.hat_form.s_op
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)
    # complement of the embedded copy inside the doubled range is 0 + E0 K
    embedded = p @ np.vstack([np.eye(2), np.zeros((2, 2))])
    calc = dd.hat_form.calculus
    emb_basis = calc.orthonormalize(embedded)
    full_basis = calc.orthonormalize(p)
    assert emb_basis.shape[1] == 1 and full_basis.shape[1] == 2
    overlaps = emb_basis.conj().T @ dd.hat_form.gram @ full_basis
    comp = full_basis @ np.linalg.svd(overlaps)[2][1:].conj().T
    assert np.linalg.norm(comp[:2]) < 1e-12  # supported on the second copy


def test_double_rejects_near_half_spectrum(diag1):
    # the doubled Gram matrix degenerates as the spectrum approaches 1/2
    f = thermal_form(diag1, 1e10)
    with pytest.raises(DegenerateFormError):
        double(f)


def test_s_operator_degenerate_gram(diag1, pos1):
    # a zero Gram matrix on the diagonal path and a singular non-diagonal
    # one both fail typed, not with NaNs or a raw LinAlgError
    with pytest.raises(DegenerateFormError):
        QuasifreeForm(diag1, np.zeros((2, 2))).s_op
    with pytest.raises(DegenerateFormError):
        QuasifreeForm(pos1, np.array([[1.0, 1.0], [1.0, 1.0]])).s_op


def test_s_operator_non_finite_sigma(pos1):
    # refused at construction, before a Gram matrix of NaNs (or a matmul
    # warning on inf) can arise
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DegenerateFormError, match="^Sigma has non-finite entries$"):
            QuasifreeForm(pos1, np.array([[bad, 0.5j], [-0.5j, 1.0]]))


def test_pairing_count_matches_formula():
    from math import factorial

    for n in (1, 2, 3, 4):
        count = len(list(pairings(list(range(2 * n)))))
        assert count == factorial(2 * n) // (2 ** n * factorial(n))


def test_moment_low_orders(diag1, rng):
    f = thermal_form(diag1, 0.6)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert moment(f, [v]) == 0.0
    g = rng.normal(size=2) + 1j * rng.normal(size=2)
    two = moment(f, [diag1.conjugate(v), g])
    assert two == pytest.approx(f.s_form(v, g), abs=1e-12)


def test_moment_two_point_defining_relation(diag2, rng):
    # the defining relation at the two-point level:
    # phi(B(f)^* B(g)) - phi(B(g) B(f)^*) = gamma(f, g)
    f = thermal_form(diag2, [0.2, 0.9])
    for _ in range(20):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = moment(f, [diag2.conjugate(a), b]) \
            - moment(f, [b, diag2.conjugate(a)])
        scale = max(1.0, abs(lhs))
        assert abs(lhs - diag2.gamma(a, b)) <= 1e-12 * scale


def test_moment_matches_fock_oracle(diag1, diag2, rng):
    # (form, doubled-Fock cutoff, numbers of vectors); the cutoff is at least
    # the number of vectors, so the field products are not truncated
    cases = [(thermal_form(diag2, [0.25, 0.4]), 6, (4, 6)),
             (transport_form(thermal_form(diag1, 0.3), squeeze(0.3)), 18, (16,))]
    for f, cutoff, sizes in cases:
        dd = double(f)
        fk = build_fock(dd.hat_form, cutoff)
        d = f.space.dim
        for n in sizes:
            vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(n)]
            value = moment(f, vecs)
            state = fk.vacuum
            for v in reversed(vecs):
                state = field_operator(fk, dd.embed(v)).matrix @ state
            oracle = complex(np.vdot(fk.vacuum, state))
            assert abs(value - oracle) <= 1e-8 * max(1.0, abs(oracle))


def _pairing_terms(a, n):
    """The (n - 1)!! products of the flat pairing sum, in enumeration order."""
    return [math.prod((a[i][j] for i, j in match), start=1.0 + 0.0j)
            for match in pairings(list(range(n)))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_matching_sum_matches_pairing_sum(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    terms = _pairing_terms(a.tolist(), n)
    got = _matching_sum(a)
    if n % 2:
        assert terms == [] and got == 0.0
        return
    # rounding grows with the terms' magnitudes, not with their cancelling sum
    scale = sum(abs(t) for t in terms)
    assert abs(got - sum(terms)) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    min_size=n * n, max_size=n * n).map(lambda e: (n, e))))
def test_matching_sum_exact_on_gaussian_integers(case):
    # products and sums of small Gaussian integers are exact in floating
    # point, so the two summation orders must agree bit for bit
    n, entries = case
    a = np.array([complex(re, im) for re, im in entries]).reshape(n, n)
    assert _matching_sum(a) == sum(_pairing_terms(a.tolist(), n), 0.0 + 0.0j)


def _chi_scalar(vals):
    """chi_values for one spectrum, one eigenvalue at a time."""
    order = np.argsort(vals)
    d = len(vals)
    out = np.empty(d)
    for rank, idx in enumerate(order):
        small = vals[order[min(rank, d - 1 - rank)]]
        small = min(max(small, 0.0), 0.5)
        a = np.sqrt(small)
        b = np.sqrt(1.0 - small)
        out[idx] = np.log(b + a) - np.log(b - a) if b > a else np.inf
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_chi_values_matches_scalar_loop(modes, rows, seed):
    # rows of symmetric pairs s, 1 - s in shuffled order, with signed zeros,
    # exact 1/2, tiny negatives and ties mixed in
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 0.5, size=(rows, modes))
    pick = rng.random(size=s.shape) < 0.3
    s[pick] = rng.choice([0.0, -0.0, 0.5, -1e-13, 1e-10, s[0, 0]], size=pick.sum())
    vals = rng.permuted(np.concatenate([s, 1.0 - s], axis=1), axis=1)
    got = chi_values(vals)
    for row, spectrum in zip(got, vals):
        assert np.array_equal(row, _chi_scalar(spectrum))


def test_symplectic_complement_trivial_cases(diag2):
    f = fock_form(diag2)
    full = [diag2.real_basis[:, j] for j in range(4)]
    assert symplectic_complement(f, full) == []
    assert len(symplectic_complement(f, [])) == 4


def test_symplectic_complement_block_structure(diag2):
    f = fock_form(diag2)
    mode1 = [diag2.real_basis[:, 0], diag2.real_basis[:, 1]]
    comp = symplectic_complement(f, mode1)
    assert len(comp) == 2
    for v in comp:
        assert np.linalg.norm(v[:2]) < 1e-12  # supported on mode 2
        assert np.linalg.norm(diag2.conjugate(v) - v) < 1e-12


def test_transport_form_moves_operator(diag1):
    f = fock_form(diag1)
    u = squeeze(0.6)
    from qfsp import gamma_adjoint

    moved = transport_form(f, u)
    expect = u @ f.s_op @ gamma_adjoint(diag1, u)
    assert np.linalg.norm(moved.s_op - expect) < 1e-12
    assert validate_form(moved).valid
