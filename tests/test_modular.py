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
from qfsp.fock import FockOperator, field_operator, second_quantize_unitary
from qfsp.modular import build_modular
from qfsp.quasifree import fock_form, thermal_form, transport_form
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
        u = md.delta_unitary(t).matrix
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
    # oracle: the per-call formula, one fresh eigh of h per power
    vals, vecs = np.linalg.eigh(md.mode_hamiltonian)
    expect = [second_quantize_unitary(
        fk, (vecs * np.exp(c * vals)) @ vecs.conj().T).matrix
        for c in (-0.5, 0.5, -1j * 0.7)]
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    # qfsp.modular calls np.linalg.eigh through the numpy module
    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = [md.delta_power(0.5), md.delta_power(-0.5), md.delta_unitary(0.7)]
    assert shapes == [(fk.modes, fk.modes)]
    for g, e in zip(got, expect):
        assert np.array_equal(g.matrix, e)


def _mode_h(dd, fk):
    """Mode-space matrix M* G_S diag(H_S, H_S) M, formed independently."""
    h_s = one_particle_modular(dd.base)
    hat_h = sla.block_diag(h_s, h_s)
    return fk.mode_basis.conj().T @ fk.form.gram @ hat_h @ fk.mode_basis


def _dense_delta(dd, fk):
    """The dense route: eigh of the hermitized, vacuum-subtracted q(hat H).

    q(hat H) is normal ordered, so this route is exact on every sector; it
    shares no code with Gamma(e^{-z h}) beyond the ladder layout.
    """
    h_s = one_particle_modular(dd.base)
    q = quantize(fk, Hamiltonian(sla.block_diag(h_s, h_s))).matrix
    q = 0.5 * (q + q.conj().T)
    vals, vecs = np.linalg.eigh(q - q[0, 0].real * np.eye(fk.dim))
    return lambda c: (vecs * np.exp(c * vals)) @ vecs.conj().T


def _transported_two_mode(diag2, rng, cutoff):
    u = sla.expm(1j * random_hamiltonian(diag2, rng, 0.3).op)
    form = transport_form(thermal_form(diag2, [0.3, 0.7]), u)
    dd = double(form)
    return dd, build_fock(dd.hat_form, cutoff)


def test_delta_matches_dense_route_below_cutoff(diag1, diag2, rng):
    dd1 = double(thermal_form(diag1, 0.5))
    cases = [(dd1, build_fock(dd1.hat_form, 30)), _transported_two_mode(diag2, rng, 8)]
    for dd, fk in cases:
        md = build_modular(dd, fk)
        dense = _dense_delta(dd, fk)
        low = fk.totals < fk.cutoff
        for c, got in ((-0.5, md.delta_power(0.5)), (0.5, md.delta_power(-0.5)),
                       (-1.0, md.delta_power(1.0)), (-0.7j, md.delta_unitary(0.7))):
            v = np.zeros(fk.dim, dtype=complex)
            v[low] = rng.normal(size=int(low.sum())) + 1j * rng.normal(size=int(low.sum()))
            want = dense(c) @ v
            assert np.linalg.norm(got @ v - want) <= 1e-12 * np.linalg.norm(want)
    # the transported form mixes the modes with complex weights, so h is
    # not diagonal and differs from its transpose
    h = _mode_h(*cases[1])
    assert np.linalg.norm(h - np.diag(np.diag(h))) > 0.1
    assert np.linalg.norm(h - h.T) > 0.1


def test_generator_exact_on_top_sector(diag2, rng):
    dd, fk = _transported_two_mode(diag2, rng, 8)
    md = build_modular(dd, fk)
    h = _mode_h(dd, fk)
    dgamma = sum(h[i, j] * fk.create(i) @ fk.annihilate(j)
                 for i in range(fk.modes) for j in range(fk.modes))
    assert np.abs(md.generator.matrix - dgamma).max() <= 1e-12
    assert np.allclose(md.mode_hamiltonian, h, atol=1e-13)
    top = np.flatnonzero(fk.totals == fk.cutoff)
    flow = sla.expm(-0.5 * dgamma)
    for k in top[[0, len(top) // 2, -1]]:
        e = np.zeros(fk.dim, dtype=complex)
        e[k] = 1.0
        want = flow @ e
        assert np.linalg.norm(md.delta_power(0.5) @ e - want) <= \
            1e-12 * np.linalg.norm(want)


def test_quantized_block_pair_is_generator_plus_vacuum_energy(diag2, rng):
    """q(diag(H_S, H_S)) - q_00 1 = dGamma(h) on every sector, the top one
    included: both are normal ordered."""
    dd, fk = _transported_two_mode(diag2, rng, 8)
    md = build_modular(dd, fk)
    q = quantize(fk, Hamiltonian(sla.block_diag(md.one_particle,
                                                md.one_particle))).matrix
    assert np.abs(q - q[0, 0] * np.eye(fk.dim) - md.generator.matrix).max() <= 1e-12


def test_mode_hamiltonian_rejects_non_conserving_generator(thermal_setup, rng):
    from qfsp.errors import InternalConsistencyError
    from qfsp.modular import _mode_hamiltonian

    _, _, fk, md = thermal_setup
    # a perturbation that does not commute with S breaks the block pair's
    # commutation with the doubled projection
    with pytest.raises(InternalConsistencyError):
        _mode_hamiltonian(fk, md.one_particle + 0.1 * rng.normal(size=(2, 2)))


def test_modular_command_forms_no_dense_fock_matrix(diag2, tmp_path, monkeypatch):
    import scipy.sparse as sp

    from qfsp.cli import main
    from qfsp.serialize import dump_json, encode_form

    path = str(tmp_path / "thermal.json")
    dump_json(encode_form(thermal_form(diag2, [0.3, 0.7])), path)
    calls = []
    for cls in (sp.csr_matrix, sp.csr_array, sp.csc_matrix, sp.csc_array,
                sp.coo_matrix, sp.coo_array):
        def counted(self, *args, _orig=cls.toarray, **kwargs):
            calls.append(type(self).__name__)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "toarray", counted)
    assert main(["modular", path, "--cutoff", "8",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert calls == []


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
    delta = md.delta_power(1.0).matrix
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
