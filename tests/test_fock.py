import numpy as np
import pytest

from qfsp import (
    InvalidArgumentError,
    NotAProjectionError,
    Presentation,
    build_standard,
    double,
)
from qfsp.fock import (
    build_fock,
    exponential_vector,
    factorization_check,
    field_operator,
    number_operator,
    parity_split,
    second_quantize_unitary,
    weyl,
)
from qfsp.quasifree import fock_form, thermal_form
from conftest import real_vec


def test_build_fock_dimensions_and_ladder(diag1, diag2):
    fk = build_fock(fock_form(diag1), 3)
    assert fk.dim == 4 and fk.modes == 1
    bd = fk.create(0)
    for k in range(3):
        assert bd[k + 1, k] == pytest.approx(np.sqrt(k + 1))
    fk2 = build_fock(fock_form(diag2), 2)
    assert fk2.dim == 6 and fk2.modes == 2


def test_build_fock_commutators(diag2):
    fk = build_fock(fock_form(diag2), 5)
    eye = np.eye(fk.dim)
    for i in range(2):
        for j in range(2):
            comm = fk.annihilate(i) @ fk.create(j) - fk.create(j) @ fk.annihilate(i)
            expect = eye if i == j else 0 * eye
            assert fk.restricted_norm(comm - expect, fk.cutoff - 1) <= 1e-14


def test_build_fock_rejects_mixed(diag1):
    with pytest.raises(NotAProjectionError):
        build_fock(thermal_form(diag1, 0.5), 4)
    with pytest.raises(InvalidArgumentError):
        build_fock(fock_form(diag1), 0)


def test_mode_basis_orthonormal(diag2):
    dd = double(thermal_form(diag2, [0.3, 1.1]))
    fk = build_fock(dd.hat_form, 3)
    gram = fk.mode_basis.conj().T @ dd.hat_form.gram @ fk.mode_basis
    assert np.linalg.norm(gram - np.eye(fk.modes)) <= 1e-12


def test_field_two_point_reproduces_sigma(diag2, rng):
    f = thermal_form(diag2, [0.25, 0.25])
    dd = double(f)
    fk = build_fock(dd.hat_form, 6)
    for _ in range(20):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        ba = field_operator(fk, dd.embed(a)).matrix
        bb = field_operator(fk, dd.embed(b)).matrix
        got = np.vdot(fk.vacuum, ba.conj().T @ (bb @ fk.vacuum))
        assert abs(got - f.s_form(a, b)) <= 1e-12 * max(1, abs(got))


def test_field_kernel_gives_zero(diag1):
    # the doubled Fock over a pure state: second-copy range vectors with
    # P f = 0 = P Gamma f produce the zero operator
    fk = build_fock(fock_form(diag1), 4)
    f = np.array([0.0, 0.0], dtype=complex)
    assert np.linalg.norm(field_operator(fk, f).matrix) == 0.0


def test_field_adjoint_is_conjugated_argument(diag1, rng):
    fk = build_fock(fock_form(diag1), 6)
    for _ in range(5):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = field_operator(fk, f).matrix
        bg = field_operator(fk, diag1.conjugate(f)).matrix
        assert np.linalg.norm(b.conj().T - bg) <= 1e-12


def test_field_ccr(diag1, rng):
    fk = build_fock(fock_form(diag1), 8)
    for _ in range(5):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        bf = field_operator(fk, f).matrix
        bg = field_operator(fk, g).matrix
        comm = bf.conj().T @ bg - bg @ bf.conj().T
        expect = diag1.gamma(f, g) * np.eye(fk.dim)
        assert fk.restricted_norm(comm - expect, fk.cutoff - 2) <= 1e-12


def test_weyl_identity_and_unitarity(diag1, rng):
    fk = build_fock(fock_form(diag1), 30)
    assert np.allclose(weyl(fk, np.zeros(2)).matrix, np.eye(fk.dim))
    f = real_vec(rng, 0.3)
    w = weyl(fk, f).matrix
    wm = weyl(fk, -f).matrix
    assert fk.restricted_norm(w @ wm - np.eye(fk.dim), fk.cutoff - 6) <= 1e-6


def test_weyl_rejects_non_real(diag1):
    fk = build_fock(fock_form(diag1), 4)
    with pytest.raises(InvalidArgumentError):
        weyl(fk, np.array([1.0, 0.0], dtype=complex))


def test_weyl_relation(diag1, rng):
    # residual on the compressed low block scales like the displacement
    # matrix elements bridging the slack window; amplitudes here keep it
    # under 1e-6 at cutoff 30 with slack 6
    fk = build_fock(fock_form(diag1), 30)
    for _ in range(5):
        f = real_vec(rng, 0.22)
        g = real_vec(rng, 0.22)
        wf, wg = weyl(fk, f).matrix, weyl(fk, g).matrix
        wfg = weyl(fk, f + g).matrix
        m = wf @ wg - np.exp(-0.5 * diag1.gamma(f, g)) * wfg
        assert fk.restricted_norm(m, fk.cutoff - 6) <= 1e-6


def test_weyl_coherent_overlap(diag1, rng):
    fk = build_fock(fock_form(diag1), 30)
    f = real_vec(rng, 0.5)
    w = weyl(fk, f).matrix
    got = np.vdot(fk.vacuum, w @ fk.vacuum)
    pf = fk.form.s_op @ f
    expect = np.exp(-0.5 * fk.form.ip(pf, pf).real)
    assert abs(got - expect) <= 1e-8


def test_exponential_vector_inner_products(diag2, rng):
    fk = build_fock(fock_form(diag2), 30)
    e0 = exponential_vector(fk, np.zeros(4))
    assert np.vdot(e0, e0) == pytest.approx(1.0)
    assert np.linalg.norm(e0 - fk.vacuum) == 0.0
    for _ in range(5):
        cu = rng.normal(size=2) * 0.6 + 1j * rng.normal(size=2) * 0.6
        cv = rng.normal(size=2) * 0.6 + 1j * rng.normal(size=2) * 0.6
        u = fk.mode_basis @ cu
        v = fk.mode_basis @ cv
        ip = complex(np.vdot(cu, cv))
        eu, ev = exponential_vector(fk, u), exponential_vector(fk, v)
        assert abs(np.vdot(eu, ev) - np.exp(ip)) <= 1e-8
        ep_u = exponential_vector(fk, u, "even")
        ep_v = exponential_vector(fk, v, "even")
        em_u = exponential_vector(fk, u, "odd")
        em_v = exponential_vector(fk, v, "odd")
        assert abs(np.vdot(ep_u, ep_v) - np.cosh(ip)) <= 1e-8
        assert abs(np.vdot(em_u, em_v) - np.sinh(ip)) <= 1e-8


def test_exponential_vectors_linearly_independent(diag1, rng):
    fk = build_fock(fock_form(diag1), 30)
    for parity in ("even", "odd"):
        coefs = [0.3, -0.8, 0.55j, 0.9 - 0.4j]
        vecs = [exponential_vector(fk, fk.mode_basis @ np.array([c]), parity)
                for c in coefs]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        # numerically nonzero determinant: the smallest singular value of the
        # normalized Gram is far above float noise
        assert np.linalg.svd(gram, compute_uv=False).min() > 1e-7


def test_parity_split_and_number(diag2):
    fk = build_fock(fock_form(diag2), 5)
    even, odd = parity_split(fk)
    assert np.allclose(even + odd, np.eye(fk.dim))
    assert even[0, 0] == 1.0  # vacuum is even
    idx_10 = fk.index[(1, 0)]
    assert odd[idx_10, idx_10] == 1.0
    counts = np.bincount(fk.totals, minlength=fk.cutoff + 1)
    expect = sum((-1) ** k * counts[k] for k in range(fk.cutoff + 1))
    assert np.trace(even) - np.trace(odd) == pytest.approx(expect)

    n = number_operator(fk).matrix
    assert np.linalg.norm(n @ fk.vacuum) == 0.0
    assert np.allclose(np.unique(np.diag(n).real), np.arange(fk.cutoff + 1))
    total = sum(fk.create(i) @ fk.annihilate(i) for i in range(2))
    assert fk.restricted_norm(n - total, fk.cutoff - 1) <= 1e-12


def test_number_sector_minima(diag1):
    fk = build_fock(fock_form(diag1), 6)
    n = np.diag(number_operator(fk).matrix).real
    even, odd = parity_split(fk)
    even_vals = n[np.diag(even) > 0.5]
    odd_vals = n[np.diag(odd) > 0.5]
    assert even_vals.min() == 0.0
    assert odd_vals.min() == 1.0


def test_factorization_check(diag2, rng):
    fk = build_fock(fock_form(diag2), 8)
    rep = factorization_check(fk, [0], [1], 5, rng=rng)
    assert rep["max_residual"] <= 1e-8
    assert rep["max_parity_residual"] <= 1e-8
    # u2 = 0 reduces to e(u1) tensor vacuum
    rep0 = factorization_check(fk, [0], [1],
                               [(np.array([0.5 + 0.2j]), np.array([0.0]))])
    assert rep0["max_residual"] <= 1e-12


def test_second_quantize_unitary_is_multiplicative(diag2, rng):
    fk = build_fock(fock_form(diag2), 6)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    r, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    gq = second_quantize_unitary(fk, q).matrix
    gr = second_quantize_unitary(fk, r).matrix
    gqr = second_quantize_unitary(fk, q @ r).matrix
    assert np.linalg.norm(gq @ gr - gqr) <= 1e-10
    assert np.linalg.norm(gq @ gq.conj().T - np.eye(fk.dim)) <= 1e-10


def test_second_quantize_unitary_matches_column_recursion(rng):
    """The sector-batched Gamma(R) against the column-by-column recursion."""
    for modes, cutoff in ((2, 9), (3, 5)):
        ps = build_standard(modes, Presentation.DIAGONAL)
        fk = build_fock(fock_form(ps), cutoff)
        r = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        raised = [sum(r[j, i] * fk.create(j) for j in range(modes)) for i in range(modes)]
        want = np.zeros((fk.dim, fk.dim), dtype=complex)
        want[:, 0] = fk.vacuum
        for k, occ in enumerate(fk.occupations[1:], start=1):
            mode = max(i for i, n in enumerate(occ) if n > 0)
            prev = list(occ)
            prev[mode] -= 1
            want[:, k] = raised[mode] @ want[:, fk.index[tuple(prev)]] / np.sqrt(occ[mode])
        got = second_quantize_unitary(fk, r).matrix
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_doubled_pure_form_decouples_hamiltonians(diag1, rng):
    """Implementers of first-copy Hamiltonians act trivially on the
    complement modes of the doubling of a pure state."""
    import scipy.linalg as sla
    from qfsp.sp_algebra import Hamiltonian, quantize, random_hamiltonian

    dd = double(fock_form(diag1))
    fk = build_fock(dd.hat_form, 8)
    h = random_hamiltonian(diag1, rng, 0.5)
    q = quantize(fk, Hamiltonian(dd.embed_op(h.op))).matrix
    qq = sla.expm(1j * q)
    # the second mode of the doubled model spans 0 + E0 K
    assert np.linalg.norm(fk.mode_basis[:2, 1]) < 1e-12
    n2 = fk.create(1) @ fk.annihilate(1)
    assert fk.restricted_norm(qq @ n2 - n2 @ qq, fk.cutoff - 2) <= 1e-10
