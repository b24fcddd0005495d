import numpy as np
import pytest

from qfsp import (
    InvalidArgumentError,
    PhaseSpace,
    Presentation,
    build_standard,
    gamma_adjoint,
    symplectic_extension,
    validate_phase_space,
)
from qfsp.errors import DegenerateInputError


def test_build_standard_position_one_mode(pos1):
    assert np.allclose(pos1.G, np.array([[0, 1j], [-1j, 0]]))
    assert np.allclose(pos1.C, np.eye(2))
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert pos1.gamma(e1, e2) == pytest.approx(1j)
    assert validate_phase_space(pos1).valid


def test_build_standard_diagonal_one_mode(diag1):
    assert np.allclose(diag1.G, np.diag([1.0, -1.0]))
    assert np.allclose(diag1.C, np.array([[0, 1], [1, 0]]))
    rep = validate_phase_space(diag1)
    assert rep.valid and rep.worst() == 0.0


def test_build_standard_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        build_standard(0, Presentation.DIAGONAL)
    with pytest.raises(InvalidArgumentError):
        build_standard(-2, Presentation.POSITION)


def test_validate_rejects_identity_form():
    ps = PhaseSpace(np.eye(2), np.eye(2))
    rep = validate_phase_space(ps)
    assert not rep.valid
    assert rep.residuals["sign_relation"] > 0.5


def test_validate_rejects_degenerate_gamma():
    ps = PhaseSpace(np.diag([1.0, 0.0]), np.array([[0, 1], [1, 0]]))
    assert not validate_phase_space(ps).valid


def test_all_standard_spaces_satisfy_invariants():
    for n in (1, 2, 3):
        for pres in Presentation:
            rep = validate_phase_space(build_standard(n, pres), tol=1e-12)
            assert rep.valid, (n, pres, rep.residuals)


def test_gamma_adjoint_identity_and_fixed_point(diag1):
    assert np.allclose(gamma_adjoint(diag1, np.eye(2)), np.eye(2))
    a = np.linalg.inv(diag1.G)  # diag(1, -1) is its own gamma-adjoint
    assert np.allclose(gamma_adjoint(diag1, a), a)


def test_gamma_adjoint_defining_relation(diag2, rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ad = gamma_adjoint(diag2, a)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            f = np.eye(4)[i].astype(complex)
            g = np.eye(4)[j].astype(complex)
            worst = max(worst, abs(diag2.gamma(ad @ f, g) - diag2.gamma(f, a @ g)))
    assert worst < 1e-12


def test_gamma_adjoint_antihomomorphism(diag2, rng):
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = gamma_adjoint(diag2, a @ b)
        rhs = gamma_adjoint(diag2, b) @ gamma_adjoint(diag2, a)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1, np.linalg.norm(lhs))


def test_gamma_adjoint_rejects_wrong_shape(diag1):
    with pytest.raises(InvalidArgumentError):
        gamma_adjoint(diag1, np.eye(3))


def _check_canonical(ps, basis, tol=1e-10):
    k = len(basis) // 2
    assert len(basis) == 2 * k
    for b in basis:
        assert np.linalg.norm(ps.conjugate(b) - b) == 0.0  # exactly fixed
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            val = ps.gamma(u, v)
            if i == j - 1 and j % 2 == 1:
                assert abs(val - 1j) < tol
            elif j == i - 1 and i % 2 == 1:
                assert abs(val + 1j) < tol
            else:
                assert abs(val) < tol


def test_extension_single_vector_position(pos1):
    e1 = np.array([1.0, 0.0], dtype=complex)
    basis = symplectic_extension(pos1, [e1])
    assert len(basis) == 2
    _check_canonical(pos1, basis)
    # the envelope is the span of e1, e2
    stacked = np.stack(basis)
    assert np.linalg.matrix_rank(stacked) == 2


def test_extension_empty_input(pos1):
    assert symplectic_extension(pos1, []) == []


def test_extension_two_mode_diagonal_vector():
    ps = build_standard(2, Presentation.POSITION)
    v = np.array([1.0, 0, 1.0, 0], dtype=complex)
    basis = symplectic_extension(ps, [v])
    assert len(basis) == 2
    _check_canonical(ps, basis)


def test_extension_random_spans(rng):
    ps = build_standard(2, Presentation.DIAGONAL)
    for _ in range(10):
        k = rng.integers(1, 4)
        vecs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(k)]
        basis = symplectic_extension(ps, vecs)
        _check_canonical(ps, basis)
        # the envelope contains the Gamma-closure of the inputs
        cols = basis + [ps.conjugate(b) for b in basis]
        stacked = np.stack(cols).T
        for v in vecs:
            res = np.linalg.lstsq(stacked, v, rcond=None)[1]
            resid = np.linalg.norm(stacked @ np.linalg.lstsq(stacked, v, rcond=None)[0] - v)
            assert resid < 1e-8


def test_extension_degenerate_error():
    # a gamma-degenerate ambient form cannot supply partners
    ps = PhaseSpace(np.diag([1.0, -1.0, 1e-30, -1e-30]),
                    np.kron(np.eye(2), np.array([[0, 1], [1, 0]])))
    v = np.zeros(4, dtype=complex)
    v[2] = 1.0
    with pytest.raises(DegenerateInputError):
        symplectic_extension(ps, [v])


def _real_basis_loop(ps):
    """Gamma-symmetrized standard basis vectors, normalized, each kept when
    two classical Gram-Schmidt passes leave a real residual."""
    picked, rows = [], []
    for e in np.eye(ps.dim, dtype=complex):
        for c in (e, 1j * e):
            v = c + ps.conjugate(c)
            nv = np.linalg.norm(v)
            if nv < 1e-12 or len(picked) == ps.dim:
                continue
            v = v / nv
            r = np.concatenate([v.real, v.imag])
            q = r
            for _ in range(2 if rows else 0):
                q = q - np.array(rows).T @ (np.array(rows) @ q)
            if np.linalg.norm(q) > 1e-10:
                picked.append(v)
                rows.append(q / np.linalg.norm(q))
    return np.stack(picked, axis=1)


def test_real_basis_is_gamma_fixed():
    for pres in Presentation:
        ps = build_standard(2, pres)
        b = ps.real_basis
        assert b.shape == (4, 4)
        for j in range(4):
            assert np.linalg.norm(ps.conjugate(b[:, j]) - b[:, j]) == 0.0
        assert np.array_equal(b, _real_basis_loop(ps))
    # a congruent copy (G, C) -> (A* G A, A^-1 C conj(A)) is no longer in a
    # standard presentation
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ps = PhaseSpace(a.conj().T @ ps.G @ a, np.linalg.solve(a, ps.C @ np.conj(a)))
    assert validate_phase_space(ps, tol=1e-9).valid
    b = ps.real_basis
    assert np.linalg.norm(ps.conjugate(b) - b) <= 1e-12
    assert np.linalg.matrix_rank(np.vstack([b.real, b.imag])) == 4
    assert np.array_equal(b, _real_basis_loop(ps))
