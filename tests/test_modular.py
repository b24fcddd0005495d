import numpy as np
import pytest
import scipy.linalg as sla

from qfsp import (
    BoundaryError,
    Hamiltonian,
    build_fock,
    double,
    kms_residual,
    one_particle_modular,
    tomita_residual,
)
from qfsp.fock import FockOperator, field_operator
from qfsp.modular import build_modular
from qfsp.quasifree import fock_form, thermal_form
from qfsp.sp_algebra import quantize, random_hamiltonian


@pytest.fixture
def thermal_setup(diag1):
    form = thermal_form(diag1, 0.5)
    dd = double(form)
    fk = build_fock(dd.hat_form, 30)
    return form, dd, fk, build_modular(dd, fk)


def test_one_particle_modular_values(diag1):
    nu = 0.5
    h = one_particle_modular(thermal_form(diag1, nu))
    f = thermal_form(diag1, nu)
    vals = np.linalg.eigvalsh(f.calculus.to_hermitian(h))
    expect = np.log((1 + nu) / nu)
    assert np.allclose(np.sort(vals), [-expect, expect], atol=1e-12)
    # gamma-odd and gamma-self-adjoint
    from qfsp import gamma_adjoint, validate_hamiltonian

    assert validate_hamiltonian(diag1, Hamiltonian(h)).valid


def test_one_particle_modular_boundary(diag1):
    with pytest.raises(BoundaryError):
        one_particle_modular(fock_form(diag1))


def test_generator_annihilates_vacuum(thermal_setup):
    _, _, fk, md = thermal_setup
    assert np.linalg.norm(md.generator.matrix @ fk.vacuum) == 0.0


def test_generator_spectrum_symmetric(thermal_setup):
    _, _, fk, md = thermal_setup
    theta = md.generator.matrix
    vals = np.linalg.eigvalsh(0.5 * (theta + theta.conj().T))
    assert np.allclose(np.sort(vals), np.sort(-vals), atol=1e-8)


def test_generator_flow_intertwines(thermal_setup, rng):
    form, dd, fk, md = thermal_setup
    t = 0.41
    flow = sla.expm(1j * t * md.generator.matrix)
    flow_inv = sla.expm(-1j * t * md.generator.matrix)
    for _ in range(3):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = field_operator(fk, dd.embed(f)).matrix
        moved = field_operator(
            fk, dd.embed(sla.expm(1j * t * md.one_particle) @ f)).matrix
        m = flow @ b @ flow_inv - moved
        assert fk.restricted_norm(m, fk.cutoff - 2) <= 1e-8


def test_delta_unitary_fixes_vacuum(thermal_setup):
    _, _, fk, md = thermal_setup
    for t in (0.3, 1.7, -2.2):
        u = md.delta_unitary(t)
        assert np.linalg.norm(u @ fk.vacuum - fk.vacuum) <= 1e-10
        assert np.linalg.norm(u @ u.conj().T - np.eye(fk.dim)) <= 1e-8


def test_conjugation_properties(thermal_setup, rng):
    form, dd, fk, md = thermal_setup
    j = md.conjugation
    assert j.antilinear
    assert np.linalg.norm(j.apply(fk.vacuum) - fk.vacuum) == 0.0
    v = rng.normal(size=fk.dim) + 1j * rng.normal(size=fk.dim)
    assert np.linalg.norm(j.apply(j.apply(v)) - v) <= 1e-10 * np.linalg.norm(v)
    # J B(h) J = B(omega h) with omega the Gamma-twisted copy swap
    for _ in range(3):
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega_h = np.concatenate([form.space.conjugate(h[2:]),
                                  form.space.conjugate(h[:2])])
        bh = field_operator(fk, h).matrix
        bo = field_operator(fk, omega_h).matrix
        w = rng.normal(size=fk.dim) + 1j * rng.normal(size=fk.dim)
        res = j.apply(bh @ j.apply(w)) - bo @ w
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(w)


def test_theta_decomposed_once(diag1, monkeypatch):
    form = thermal_form(diag1, 0.5)
    dd = double(form)
    fk = build_fock(dd.hat_form, 12)
    md = build_modular(dd, fk)
    theta = md.generator.matrix
    # oracle: the per-call formula, one fresh eigh per power
    vals, vecs = np.linalg.eigh(0.5 * (theta + theta.conj().T))
    expect = [(vecs * np.exp(-0.5 * vals)) @ vecs.conj().T,
              (vecs * np.exp(0.5 * vals)) @ vecs.conj().T,
              (vecs * np.exp(-1j * 0.7 * vals)) @ vecs.conj().T]
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    # qfsp.modular calls np.linalg.eigh through the numpy module
    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = [md.delta_power(0.5), md.delta_power(-0.5), md.delta_unitary(0.7)]
    assert len(calls) == 1
    for g, e in zip(got, expect):
        assert np.array_equal(g, e)


def test_conjugation_inverts_delta(thermal_setup, rng):
    _, _, fk, md = thermal_setup
    j = md.conjugation
    d_half = md.delta_power(0.5)
    d_minus = md.delta_power(-0.5)
    v = np.zeros(fk.dim, dtype=complex)
    low = fk.sector_mask(6)
    v[low] = rng.normal(size=int(low.sum()))
    res = j.apply(d_half @ v) - d_minus @ j.apply(v)
    assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(v)


def test_tomita_identity_operator(thermal_setup):
    _, _, fk, md = thermal_setup
    eye = FockOperator(np.eye(fk.dim))
    assert tomita_residual(md, eye, eye) <= 1e-12


def test_tomita_degree_two(thermal_setup, rng):
    form, dd, fk, md = thermal_setup
    sp = form.space
    for _ in range(5):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = field_operator(fk, dd.embed(f)) @ field_operator(fk, dd.embed(g))
        a_star = field_operator(fk, dd.embed(sp.conjugate(g))) @ \
            field_operator(fk, dd.embed(sp.conjugate(f)))
        assert tomita_residual(md, a, a_star) <= 1e-6


def test_tomita_implementer(thermal_setup, rng):
    form, dd, fk, md = thermal_setup
    h = random_hamiltonian(form.space, rng, 0.05)
    q = quantize(fk, Hamiltonian(dd.embed_op(h.op))).matrix
    qq = sla.expm(1j * q)
    assert tomita_residual(md, FockOperator(qq), FockOperator(qq.conj().T)) <= 1e-5


def test_kms_residuals(thermal_setup, rng):
    form, dd, fk, md = thermal_setup
    sp = form.space
    eye = FockOperator(np.eye(fk.dim))
    assert kms_residual(md, eye, eye) <= 1e-12
    for _ in range(5):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = field_operator(fk, dd.embed(sp.conjugate(f)))
        b = field_operator(fk, dd.embed(f))
        assert kms_residual(md, a, b) <= 1e-6
    for _ in range(3):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = field_operator(fk, dd.embed(sp.conjugate(f))) @ \
            field_operator(fk, dd.embed(f))
        b = field_operator(fk, dd.embed(sp.conjugate(g))) @ \
            field_operator(fk, dd.embed(g))
        assert kms_residual(md, a, b) <= 1e-5


def test_two_point_kms_exactness(thermal_setup, rng):
    form, dd, fk, md = thermal_setup
    f = rng.normal(size=2) + 1j * rng.normal(size=2)
    bstar = field_operator(fk, dd.embed(form.space.conjugate(f))).matrix
    b = field_operator(fk, dd.embed(f)).matrix
    delta = md.delta_power(1.0)
    lhs = np.vdot(fk.vacuum, bstar @ delta @ b @ fk.vacuum)
    rhs = np.vdot(fk.vacuum, b @ bstar @ fk.vacuum)
    assert abs(lhs - rhs) <= 1e-8


def test_half_spectrum_is_allowed_upstream_of_doubling(diag1):
    # one_particle_modular itself tolerates spectrum near 1/2; the value of
    # log(s/(1-s)) there is near zero
    f = thermal_form(diag1, 40.0)  # eigenvalues 41/81, 40/81
    h = one_particle_modular(f)
    vals = np.linalg.eigvalsh(f.calculus.to_hermitian(h))
    assert np.allclose(np.sort(vals), [-np.log(41 / 40), np.log(41 / 40)],
                       atol=1e-10)
