import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from qfsp import (
    Hamiltonian,
    Presentation,
    build_standard,
    InvalidArgumentError,
    basis_hamiltonian,
    cyclic_span,
    double,
    implementer,
    lie_residual,
    quantize,
    rank_decompose,
    validate_hamiltonian,
)
from qfsp.fock import build_fock, field_operator, number_operator, parity_split, weyl
from qfsp.quasifree import fock_form, thermal_form
from qfsp.sp_algebra import RankDecomposition, random_hamiltonian
from conftest import real_vec


def test_validate_hamiltonian_examples(diag1):
    assert validate_hamiltonian(diag1, Hamiltonian(np.zeros((2, 2)))).valid
    assert not validate_hamiltonian(diag1, Hamiltonian(1j * np.eye(2))).valid


def test_basis_hamiltonians_validate(diag2):
    fk = build_fock(fock_form(diag2), 4)
    for kind in (1, 2, 3, 4):
        for k in range(2):
            for l in range(2):
                h = basis_hamiltonian(diag2, fk.mode_basis, kind, k, l)
                rep = validate_hamiltonian(diag2, h)
                assert rep.valid and rep.worst() <= 1e-12


def test_basis_hamiltonian_index_errors(diag1):
    fk = build_fock(fock_form(diag1), 3)
    with pytest.raises(InvalidArgumentError):
        basis_hamiltonian(diag1, fk.mode_basis, 5, 0, 0)
    with pytest.raises(InvalidArgumentError):
        basis_hamiltonian(diag1, fk.mode_basis, 1, 0, 1)


def test_quantize_matches_closed_forms(diag2):
    """The four spanning families quantize to the documented quadratics."""
    fk = build_fock(fock_form(diag2), 6)
    modes = fk.mode_basis
    low = fk.cutoff - 2
    eye = np.eye(fk.dim)
    for k in range(2):
        for l in range(2):
            bk = field_operator(fk, modes[:, k]).matrix
            bl = field_operator(fk, modes[:, l]).matrix
            bks, bls = bk.conj().T, bl.conj().T
            delta = eye if k == l else 0 * eye
            q1 = quantize(fk, basis_hamiltonian(diag2, modes, 1, k, l)).matrix
            assert fk.restricted_norm(q1 - (bk @ bls + bl @ bks + delta), low) <= 1e-12
            q2 = quantize(fk, basis_hamiltonian(diag2, modes, 2, k, l)).matrix
            assert fk.restricted_norm(q2 - (bks @ bls + bk @ bl), low) <= 1e-12
            q3 = quantize(fk, basis_hamiltonian(diag2, modes, 3, k, l)).matrix
            assert fk.restricted_norm(q3 - 1j * (bk @ bls - bl @ bks), low) <= 1e-12
            q4 = quantize(fk, basis_hamiltonian(diag2, modes, 4, k, l)).matrix
            assert fk.restricted_norm(q4 - 1j * (bk @ bl - bks @ bls), low) <= 1e-12


def test_gauge_generator_value(diag1):
    # q(H(e;1,k,k)) = 2 B B^* + 1
    fk = build_fock(fock_form(diag1), 6)
    b = field_operator(fk, fk.mode_basis[:, 0]).matrix
    q = quantize(fk, basis_hamiltonian(diag1, fk.mode_basis, 1, 0, 0)).matrix
    assert fk.restricted_norm(q - (2 * b @ b.conj().T + np.eye(fk.dim)),
                              fk.cutoff - 2) <= 1e-12


def test_rank_decompose_zero_and_reconstruction(diag2, rng):
    assert rank_decompose(diag2, Hamiltonian(np.zeros((4, 4)))).pairs == []
    for _ in range(10):
        h = random_hamiltonian(diag2, rng)
        dec = rank_decompose(diag2, h)
        res = np.linalg.norm(dec.reconstruct(diag2) - h.op, 2)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(h.op, 2))


def test_rank_decompose_gauge_pair_count(diag1):
    fk = build_fock(fock_form(diag1), 3)
    h = basis_hamiltonian(diag1, fk.mode_basis, 1, 0, 0)
    dec = rank_decompose(diag1, h)
    assert len(dec.pairs) == 2
    assert np.linalg.norm(dec.reconstruct(diag1) - h.op) <= 1e-12


def test_quantize_decomposition_independence(diag2, rng):
    fk = build_fock(fock_form(diag2), 8)
    for _ in range(5):
        h = random_hamiltonian(diag2, rng)
        canonical = quantize(fk, h).matrix
        dec = rank_decompose(diag2, h)
        # shuffle and rescale the pairs: same operator by linearity in gamma
        pairs = [(2.0 * f, 0.5 * g) for f, g in reversed(dec.pairs)]
        other = quantize(fk, h, RankDecomposition(pairs)).matrix
        assert fk.restricted_norm(canonical - other, fk.cutoff - 2) <= 1e-10


def test_quantize_real_linearity(diag2, rng):
    fk = build_fock(fock_form(diag2), 6)
    h1 = random_hamiltonian(diag2, rng)
    h2 = random_hamiltonian(diag2, rng)
    a, b = 0.7, -1.3
    combo = Hamiltonian(a * h1.op + b * h2.op)
    lhs = quantize(fk, combo).matrix
    rhs = a * quantize(fk, h1).matrix + b * quantize(fk, h2).matrix
    assert fk.restricted_norm(lhs - rhs, fk.cutoff - 2) <= 1e-12


def test_quantize_hermitian_and_parity(diag2, rng):
    fk = build_fock(fock_form(diag2), 8)
    even, odd = parity_split(fk)
    for _ in range(5):
        q = quantize(fk, random_hamiltonian(diag2, rng)).matrix
        assert fk.restricted_norm(q - q.conj().T, fk.cutoff - 2) <= 1e-10
        assert np.linalg.norm(even @ q @ odd) == 0.0
        assert np.linalg.norm(odd @ q @ even) == 0.0


def test_implementer_identity_and_gauge_phase(diag1):
    fk = build_fock(fock_form(diag1), 10)
    assert np.allclose(implementer(fk, Hamiltonian(np.zeros((2, 2)))).matrix,
                       np.eye(fk.dim))
    h = basis_hamiltonian(diag1, fk.mode_basis, 1, 0, 0)
    psi = implementer(fk, h).matrix @ fk.vacuum
    phase = psi[0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.linalg.norm(psi - phase * fk.vacuum) <= 1e-12


def test_covariance_gauge_exact(diag1, rng):
    fk = build_fock(fock_form(diag1), 30)
    h = Hamiltonian(np.diag([0.7, -0.7]).astype(complex))
    q = implementer(fk, h).matrix
    f = real_vec(rng, 0.3)
    w = weyl(fk, f).matrix
    wu = weyl(fk, sla.expm(1j * h.op) @ f).matrix
    assert fk.restricted_norm(q @ w @ q.conj().T - wu, fk.cutoff - 6) <= 1e-12


def test_covariance_small_squeeze(diag1, rng):
    # truncation contaminates the compressed residual geometrically in the
    # squeeze strength; small pair-creation keeps it under 1e-6 at slack 6
    fk = build_fock(fock_form(diag1), 30)
    for _ in range(5):
        gauge = rng.normal() * 0.8
        eps = 0.005 * rng.uniform(0.2, 1.0)
        h = Hamiltonian(np.diag([gauge, -gauge]).astype(complex)
                        + 1j * eps * np.array([[0, 1], [1, 0]]))
        assert validate_hamiltonian(diag1, h).valid
        q = implementer(fk, h).matrix
        f = real_vec(rng, 0.25)
        w = weyl(fk, f).matrix
        wu = weyl(fk, sla.expm(1j * h.op) @ f).matrix
        assert fk.restricted_norm(q @ w @ q.conj().T - wu, fk.cutoff - 6) <= 1e-6


def test_lie_residual(diag2, rng):
    fk = build_fock(fock_form(diag2), 10)
    h = random_hamiltonian(diag2, rng)
    assert lie_residual(fk, h, Hamiltonian(np.zeros((4, 4)))) <= 1e-14
    g1 = basis_hamiltonian(diag2, fk.mode_basis, 2, 0, 0)
    g2 = basis_hamiltonian(diag2, fk.mode_basis, 1, 0, 0)
    assert lie_residual(fk, g1, g2) <= 1e-10
    for _ in range(5):
        h1 = random_hamiltonian(diag2, rng)
        h2 = random_hamiltonian(diag2, rng)
        assert lie_residual(fk, h1, h2) <= 1e-10


def test_spanning_by_basis_hamiltonians(diag2, rng):
    fk = build_fock(fock_form(diag2), 3)
    modes = fk.mode_basis
    family = [basis_hamiltonian(diag2, modes, kind, k, l).op
              for kind in (1, 2, 3, 4) for k in range(2) for l in range(2)]
    design = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()])
                       for m in family], axis=1)
    for _ in range(20):
        h = random_hamiltonian(diag2, rng)
        target = np.concatenate([h.op.real.ravel(), h.op.imag.ravel()])
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.linalg.norm(design @ coef - target) <= 1e-8


def test_cyclic_span_examples(diag1):
    fk = build_fock(fock_form(diag1), 6)
    assert cyclic_span(fk, [], fk.vacuum, 3) == 1
    gens = [quantize(fk, basis_hamiltonian(diag1, fk.mode_basis, 2, 0, 0)),
            quantize(fk, basis_hamiltonian(diag1, fk.mode_basis, 1, 0, 0))]
    assert cyclic_span(fk, gens, fk.vacuum, 6) == 4  # even sector 0,2,4,6
    one = field_operator(fk, fk.mode_basis[:, 0]).matrix @ fk.vacuum
    assert cyclic_span(fk, gens, one, 6) == 3  # odd sector 1,3,5


def test_mixed_state_quantization_runs_on_doubling(diag1, rng):
    f = thermal_form(diag1, 0.4)
    dd = double(f)
    fk = build_fock(dd.hat_form, 8)
    h = random_hamiltonian(diag1, rng)
    q = quantize(fk, Hamiltonian(dd.embed_op(h.op))).matrix
    assert fk.restricted_norm(q - q.conj().T, fk.cutoff - 2) <= 1e-10


def _dense_field(fk, f):
    """B(f) summed densely from the per-mode ladder matrices."""
    p = fk.form.s_op
    c = fk.mode_coords(p @ f)
    d = np.conj(fk.mode_coords(p @ fk.form.space.conjugate(f)))
    return sum(c[i] * fk.create(i) + d[i] * fk.annihilate(i) for i in range(fk.modes))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_sparse_quantize_matches_dense_field_products(modes, cutoff, seed):
    ps = build_standard(modes, Presentation.DIAGONAL)
    fk = build_fock(fock_form(ps), cutoff)
    h = random_hamiltonian(ps, np.random.default_rng(seed))
    want = 0.5 * sum(_dense_field(fk, f) @ _dense_field(fk, ps.conjugate(g))
                     for f, g in rank_decompose(ps, h).pairs)
    got = quantize(fk, h).matrix
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
