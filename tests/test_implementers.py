import numpy as np
import pytest
import scipy.linalg as sla

from qfsp import (
    GeometryError,
    Presentation,
    SymplecticMap,
    bogoliubov_u,
    build_fock,
    build_standard,
    cocycle_sign,
    dP_distance,
    gamma_adjoint,
    implement_T,
    implement_T_apply,
    metaplectic,
    metaplectic_apply,
    polar,
    theta,
    transport_form,
    vacuum_overlap,
    validate_hamiltonian,
    validate_symplectic,
)
from qfsp.fock import (
    field_operator,
    occupation_conjugation,
    second_quantize_unitary,
    weyl,
)
from qfsp.implementers import restricted_rotation
from qfsp.quasifree import direct_sum_form, fock_form
from qfsp.sp_algebra import quantize, random_hamiltonian
from conftest import squeeze, random_kappa_real, real_vec


def random_symplectic(ps, rng, scale=0.5):
    h = random_hamiltonian(ps, rng, scale)
    return sla.expm(1j * h.op)


def test_validate_symplectic(diag1, rng):
    assert validate_symplectic(diag1, squeeze(0.8)).valid
    assert not validate_symplectic(diag1, 2 * np.eye(2)).valid
    u = random_symplectic(diag1, rng)
    assert validate_symplectic(diag1, u).valid


def test_theta_trivial_and_squeeze(diag1):
    f = fock_form(diag1)
    assert np.linalg.norm(theta(f, f)) <= 1e-12
    r = 0.7
    moved = transport_form(f, squeeze(r))
    th = theta(f, moved)
    # 2x2 oracle: (P - P')^2 = -sinh(r)^2 * 1, hence theta = r * 1
    assert np.linalg.norm(th - r * np.eye(2)) <= 1e-12


def test_theta_defining_identity(diag2, rng):
    f = fock_form(diag2)
    for _ in range(10):
        u = random_symplectic(diag2, rng)
        moved = transport_form(f, u)
        th = theta(f, moved)
        sinh2 = f.calculus.fn(th, np.sinh)
        sinh2 = sinh2 @ sinh2
        diff = f.s_op - moved.s_op
        assert np.linalg.norm(sinh2 + diff @ diff, 2) <= 1e-10
        assert np.linalg.norm(th @ f.s_op - f.s_op @ th, 2) <= 1e-9


def test_theta_rejects_invalid_geometry(diag1):
    # for two mixed commuting forms (S - S')^2 is positive, so the angle
    # equation has no solution and the pair is rejected
    from qfsp.quasifree import thermal_form

    with pytest.raises(GeometryError):
        theta(thermal_form(diag1, 0.3), thermal_form(diag1, 0.8))


def test_bogoliubov_u_identity_and_squeeze(diag1):
    f = fock_form(diag1)
    u, h = bogoliubov_u(f, f)
    assert np.linalg.norm(u.u - np.eye(2)) <= 1e-12
    r = 0.6
    moved = transport_form(f, squeeze(r))
    u, h = bogoliubov_u(f, moved)
    assert validate_hamiltonian(diag1, h).valid
    udag = gamma_adjoint(diag1, u.u)
    assert np.linalg.norm(udag @ f.s_op @ u.u - moved.s_op, 2) <= 1e-10
    assert np.linalg.norm(diag1.conj_op(u.u) - u.u, 2) <= 1e-12


def test_bogoliubov_u_random_pairs(diag2, rng):
    f = fock_form(diag2)
    for _ in range(10):
        v = random_symplectic(diag2, rng)
        moved = transport_form(f, v)
        u, h = bogoliubov_u(f, moved)
        assert validate_hamiltonian(diag2, h, tol=1e-9).valid
        udag = gamma_adjoint(diag2, u.u)
        assert np.linalg.norm(udag @ f.s_op @ u.u - moved.s_op, 2) <= 1e-9
        assert validate_symplectic(diag2, u.u).valid


def test_implement_T_identity_overlap_intertwining(diag1, rng):
    f = fock_form(diag1)
    fk = build_fock(f, 40)
    t0 = implement_T(fk, f, f).matrix
    assert np.linalg.norm(t0 - np.eye(fk.dim)) <= 1e-12
    for r in (0.25, 0.5, 1.0):
        moved = transport_form(f, squeeze(r))
        t = implement_T(fk, f, moved).matrix
        got = np.vdot(fk.vacuum, t @ fk.vacuum)
        assert abs(got - 1.0 / np.sqrt(np.cosh(r))) <= 1e-6
    # intertwining T^* B(f) T = B(U f), compressed to trusted sectors
    fk60 = build_fock(f, 60)
    moved = transport_form(f, squeeze(0.4))
    u, _ = bogoliubov_u(f, moved)
    t = implement_T(fk60, f, moved).matrix
    g = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = field_operator(fk60, g).matrix
    bu = field_operator(fk60, u.u @ g).matrix
    assert fk60.restricted_norm(t.conj().T @ b @ t - bu, 8) <= 1e-6


def test_vacuum_overlap_values(diag1, diag2):
    f = fock_form(diag1)
    assert vacuum_overlap(f, f) == pytest.approx(1.0)
    moved = transport_form(f, squeeze(1.0))
    assert vacuum_overlap(f, moved) == pytest.approx(np.cosh(1.0) ** -0.5,
                                                     abs=1e-12)
    # independent squeezes on two modes multiply
    f2 = fock_form(diag2)
    u2 = sla.block_diag(squeeze(0.4), squeeze(0.9))
    moved2 = transport_form(f2, u2)
    expect = (np.cosh(0.4) * np.cosh(0.9)) ** -0.5
    assert vacuum_overlap(f2, moved2) == pytest.approx(expect, abs=1e-12)


def test_vacuum_overlap_matches_bruteforce(diag2, rng):
    f = fock_form(diag2)
    fk = build_fock(f, 16)
    for _ in range(3):
        u = random_symplectic(diag2, rng, scale=0.3)
        moved = transport_form(f, u)
        det_val = vacuum_overlap(f, moved)
        t = implement_T(fk, f, moved).matrix
        brute = np.vdot(fk.vacuum, t @ fk.vacuum)
        assert abs(det_val - brute) <= 1e-6


def test_polar_cases(diag1, rng):
    f = fock_form(diag1)
    # P-commuting U: trivial positive part
    rot = np.diag([np.exp(0.6j), np.exp(-0.6j)]).astype(complex)
    parts = polar(diag1, SymplecticMap(rot), f)
    assert np.linalg.norm(parts.positive.u - np.eye(2)) <= 1e-10
    assert np.linalg.norm(parts.rotation.u - rot) <= 1e-10
    # positive-symmetric squeeze: trivial rotation
    parts = polar(diag1, SymplecticMap(squeeze(0.8)), f)
    assert np.linalg.norm(parts.positive.u - squeeze(0.8)) <= 1e-10
    assert np.linalg.norm(parts.rotation.u - np.eye(2)) <= 1e-10


def test_polar_recomposition_properties(diag2, rng):
    f = fock_form(diag2)
    gram = f.gram
    for _ in range(10):
        u = SymplecticMap(random_symplectic(diag2, rng))
        parts = polar(diag2, u, f)
        assert np.linalg.norm(parts.positive.u @ parts.rotation.u - u.u,
                              2) <= 1e-10
        r = parts.rotation.u
        assert np.linalg.norm(r @ f.s_op - f.s_op @ r, 2) <= 1e-9
        assert np.linalg.norm(r.conj().T @ gram @ r - gram, 2) <= 1e-10
        w = parts.positive.u
        assert np.linalg.norm(w.conj().T @ gram - gram @ w, 2) <= 1e-9
        vals = np.linalg.eigvalsh(f.calculus.to_hermitian(w))
        assert vals.min() > 0


def test_polar_corner_identity(diag2, rng):
    f = fock_form(diag2)
    p = f.s_op
    eye = np.eye(4)
    for _ in range(10):
        u = random_symplectic(diag2, rng)
        moved = transport_form(f, u)
        th = theta(f, moved)
        sinh = f.calculus.fn(th, np.sinh)
        corner = p @ u @ (eye - p) @ gamma_adjoint(diag2, u) @ p
        assert np.linalg.norm(corner + sinh @ sinh @ p, 2) <= 1e-10


def test_dP_distance(diag1, rng):
    f = fock_form(diag1)
    eye = SymplecticMap(np.eye(2, dtype=complex))
    assert dP_distance(diag1, eye, eye, f) == 0.0
    r = 0.9
    u = SymplecticMap(squeeze(r))
    # corner block is [[0, sinh r], [0, 0]] in the P frame
    d = dP_distance(diag1, u, eye, f)
    from qfsp.linalg import op_norm

    expect = op_norm(squeeze(r) - np.eye(2), f.gram) + np.sinh(r)
    assert d == pytest.approx(expect, rel=1e-12)
    for _ in range(10):
        a = SymplecticMap(random_symplectic(diag1, rng))
        b = SymplecticMap(random_symplectic(diag1, rng))
        c = SymplecticMap(random_symplectic(diag1, rng))
        lhs = dP_distance(diag1, a, c, f)
        rhs = dP_distance(diag1, a, b, f) + dP_distance(diag1, b, c, f)
        assert lhs <= rhs + 1e-12


def test_metaplectic_identity_squeeze_rotation(diag1):
    f = fock_form(diag1)
    fk = build_fock(f, 40)
    q = metaplectic(fk, SymplecticMap(np.eye(2, dtype=complex)))
    assert np.linalg.norm(q.matrix - np.eye(fk.dim)) <= 1e-10
    r = 0.5
    q = metaplectic(fk, SymplecticMap(squeeze(r)))
    assert np.vdot(fk.vacuum, q.matrix @ fk.vacuum) == pytest.approx(
        np.cosh(r) ** -0.5, abs=1e-10)
    # rotations act by occupation phases
    phi = 0.8
    rot = SymplecticMap(np.diag([np.exp(1j * phi), np.exp(-1j * phi)]))
    q = metaplectic(fk, rot).matrix
    assert np.linalg.norm(q - np.diag(np.exp(1j * phi * fk.totals))) <= 1e-10


def test_metaplectic_intertwines_weyl(diag1, rng):
    f = fock_form(diag1)
    fk = build_fock(f, 80)
    phi = 0.7
    u = SymplecticMap(squeeze(0.35)
                      @ np.diag([np.exp(1j * phi), np.exp(-1j * phi)]))
    q = metaplectic(fk, u).matrix
    for _ in range(3):
        g = real_vec(rng, 0.15)
        w = weyl(fk, g).matrix
        wu = weyl(fk, u.u @ g).matrix
        assert fk.restricted_norm(q @ w @ q.conj().T - wu, 8) <= 1e-6


def test_metaplectic_inverse(diag1):
    f = fock_form(diag1)
    fk = build_fock(f, 60)
    u = SymplecticMap(squeeze(0.4))
    q = metaplectic(fk, u).matrix
    qi = metaplectic(fk, SymplecticMap(np.linalg.inv(u.u))).matrix
    assert fk.restricted_norm(q @ qi - np.eye(fk.dim), 8) <= 1e-6


def test_metaplectic_commutes_with_real_structure(diag1, rng):
    """Real-matrix symplectics produce real implementers, which commute with
    the occupation-basis conjugation that pins the +-1 sign."""
    f = fock_form(diag1)
    fk = build_fock(f, 40)
    conj = occupation_conjugation(fk)
    for _ in range(5):
        u = SymplecticMap(random_kappa_real(diag1, rng))
        q = metaplectic(fk, u)
        v = rng.normal(size=fk.dim) + 1j * rng.normal(size=fk.dim)
        lhs = conj.apply(q.matrix @ conj.apply(v))
        assert np.linalg.norm(lhs - q.matrix @ v) <= 1e-8 * np.linalg.norm(v)


def test_cocycle_trivial_and_inverse(diag1, rng):
    f = fock_form(diag1)
    fk = build_fock(f, 40)
    u = SymplecticMap(squeeze(0.4))
    eye = SymplecticMap(np.eye(2, dtype=complex))
    est = cocycle_sign(fk, eye, u)
    assert est.rounded == 1 and abs(est.raw - 1.0) <= 1e-6
    est = cocycle_sign(fk, u, SymplecticMap(np.linalg.inv(u.u)))
    assert abs(est.raw - est.rounded) <= 1e-6 and est.rounded in (1, -1)


def test_cocycle_real_pairs_are_real(diag2, rng):
    f = fock_form(diag2)
    fk = build_fock(f, 14)
    for _ in range(6):
        u1 = SymplecticMap(random_kappa_real(diag2, rng))
        u2 = SymplecticMap(random_kappa_real(diag2, rng))
        est = cocycle_sign(fk, u1, u2, sector=4)
        assert est.modulus_defect <= 1e-6
        assert est.imag_defect <= 1e-6
        assert est.rounded in (1, -1)


def test_cocycle_complex_pair_has_unit_modulus(diag1):
    """Squeezes along rotated axes give a genuinely complex unit cocycle;
    such elements are outside the real-structure subgroup."""
    f = fock_form(diag1)
    fk = build_fock(f, 60)
    rot = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    u1 = SymplecticMap(squeeze(0.5))
    u2 = SymplecticMap(rot @ squeeze(0.5) @ rot.conj().T)
    est = cocycle_sign(fk, u1, u2)
    assert est.modulus_defect <= 1e-6
    # frozen from the two-squeeze composition law: the phase is half the
    # argument of cosh(r)^2 - i sinh(r)^2
    expect = np.exp(0.5j * np.angle(np.cosh(0.5) ** 2 - 1j * np.sinh(0.5) ** 2))
    assert abs(est.raw - expect) <= 1e-6


def test_minus_one_witness_search(diag2, rng):
    """Bounded search for a -1 cocycle among real-structured products.

    The canonical section is multiplicative on every chain sampled here, so
    the search records +1 throughout; a -1 witness is not reachable this
    way and the covering splits over the real subgroup.  Keep this as a
    regression: any future -1 would be a sign convention change.
    """
    f = fock_form(diag2)
    fk = build_fock(f, 14)
    found = []
    for _ in range(8):
        u1 = SymplecticMap(random_kappa_real(diag2, rng, scale=0.3))
        u2 = SymplecticMap(random_kappa_real(diag2, rng, scale=0.3))
        est = cocycle_sign(fk, u1, u2, sector=4)
        assert est.imag_defect <= 1e-6
        found.append(est.rounded)
    assert set(found) <= {1, -1}
    assert all(v == 1 for v in found)


def test_continuity_bound(diag1, rng):
    from qfsp.linalg import hs_norm

    f = fock_form(diag1)
    fk = build_fock(f, 40)
    eye = np.eye(2)
    for r in (0.1, 0.3, 0.5):
        u = SymplecticMap(squeeze(r))
        q = metaplectic(fk, u).matrix
        lhs = np.linalg.norm(q @ fk.vacuum - fk.vacuum) ** 2
        corner = f.s_op @ u.u @ (eye - f.s_op)
        rhs = 2.0 * (1.0 - np.exp(-0.25 * hs_norm(corner, f.gram)))
        assert lhs <= rhs + 1e-6


def test_theta_mixed_block_pair(diag1):
    # direct sums behave blockwise
    f = fock_form(diag1)
    moved = transport_form(f, squeeze(0.3))
    big = direct_sum_form(f, f)
    big_moved = direct_sum_form(moved, moved)
    th = theta(big, big_moved)
    assert np.linalg.norm(th - 0.3 * np.eye(4), 2) <= 1e-10


def _dense_factors(fk, u):
    """Dense expm(-i q(H)) and Gamma(R) of the canonical implementer of u."""
    other = transport_form(fk.form, u.u)
    _, h = bogoliubov_u(fk.form, other)
    t = sla.expm(-1j * quantize(fk, h).matrix)
    rotation = polar(fk.form.space, u, fk.form).rotation
    return other, t, second_quantize_unitary(fk, restricted_rotation(fk, rotation)).matrix


@pytest.mark.parametrize("modes,cutoff", [(1, 40), (2, 18)])
def test_apply_matches_dense_expm(modes, cutoff):
    ps = build_standard(modes, Presentation.DIAGONAL)
    fk = build_fock(fock_form(ps), cutoff)
    assert fk.dim == (41 if modes == 1 else 190)
    u = SymplecticMap(random_kappa_real(ps, np.random.default_rng(5), 0.3)
                      @ random_symplectic(ps, np.random.default_rng(6), 0.3))
    other, t, gamma_r = _dense_factors(fk, u)
    block = np.eye(fk.dim, dtype=complex)[:, fk.sector_mask(8)]
    for x in (fk.vacuum, block):
        got = implement_T_apply(fk, fk.form, other, x)
        assert np.abs(got - t @ x).max() <= 1e-12
        for sign in (1, -1):
            got = metaplectic_apply(fk, u, x, sign)
            assert np.abs(got - sign * (t @ (gamma_r @ x))).max() <= 1e-12


def test_cocycle_matches_dense_compression():
    """cocycle_sign against the compression of dense implementer products,
    on the pairs of acceptance criterion 10."""
    diag2 = build_standard(2, Presentation.DIAGONAL)
    rng = np.random.default_rng(110)
    for _ in range(5):
        real_vec(rng, 0.15)
    fk = build_fock(fock_form(diag2), 18)
    mask = fk.sector_mask(4)

    def dense(u):
        _, t, gamma_r = _dense_factors(fk, u)
        return t @ gamma_r

    for _ in range(20):
        u1 = SymplecticMap(random_kappa_real(diag2, rng, 0.22))
        u2 = SymplecticMap(random_kappa_real(diag2, rng, 0.22))
        est = cocycle_sign(fk, u1, u2, sector=4)
        a = (dense(u1) @ dense(u2))[np.ix_(mask, mask)].ravel()
        b = dense(SymplecticMap(u1.u @ u2.u))[np.ix_(mask, mask)].ravel()
        lam = np.vdot(b, a) / np.vdot(b, b).real
        fit = np.linalg.norm(a - lam * b) / np.sqrt(np.vdot(b, b).real)
        assert abs(est.raw - lam) <= 1e-12
        assert abs(est.fit_residual - fit) <= 1e-12
