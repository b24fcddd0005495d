import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfsp import (
    DegenerateFormError,
    FamilyConfig,
    InvalidArgumentError,
    classify_family,
    classify_pair,
    discriminant,
    family_from_json,
    hs_discriminant,
    norm_equivalence_bounds,
    state_distance_lower_bound,
)
from qfsp.classifier import ModeFamily, mode_expression, verdict_from_evidence
from qfsp.errors import ParseError
from qfsp.quasifree import (
    QuasifreeForm,
    direct_sum_form,
    fock_form,
    thermal_form,
    transport_form,
)
from conftest import random_kappa_real


def test_norm_bounds_trivial_and_thermal(diag1):
    f = fock_form(diag1)
    assert norm_equivalence_bounds(f, f) == (1.0, 1.0)
    nu = 0.8
    a, b = norm_equivalence_bounds(f, thermal_form(diag1, nu))
    assert a == pytest.approx(np.sqrt(1 + 2 * nu))
    assert b == pytest.approx(np.sqrt(1 + 2 * nu))


def test_norm_bounds_rayleigh_property(diag2, rng):
    f = thermal_form(diag2, [0.2, 1.5])
    g = transport_form(f, random_kappa_real(diag2, rng))
    a, b = norm_equivalence_bounds(f, g)
    assert a <= b
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        ratio = g.norm(v) / f.norm(v)
        assert a - 1e-10 <= ratio <= b + 1e-10


def test_norm_bounds_degenerate_gram(diag1, pos1):
    # a singular G_S on either side, diagonal or not, fails typed instead
    # of giving inf or a meaningless Rayleigh bound
    good = thermal_form(diag1, 0.3)
    zero = QuasifreeForm(diag1, np.zeros((2, 2)))
    good_pos = QuasifreeForm(pos1, np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
    singular_pos = QuasifreeForm(pos1, np.ones((2, 2)))
    for f, g in ((zero, good), (good, zero),
                 (singular_pos, good_pos), (good_pos, singular_pos)):
        with pytest.raises(DegenerateFormError):
            norm_equivalence_bounds(f, g)


def test_discriminant_vanishes_on_diagonal(diag2):
    f = thermal_form(diag2, [0.4, 1.0])
    assert np.linalg.norm(discriminant(f, f), 2) <= 1e-12
    assert hs_discriminant(f, f) <= 1e-12


def test_discriminant_thermal_closed_form(diag1):
    tau, tau_p = 0.35, 0.6
    f = thermal_form(diag1, np.sinh(tau) ** 2)
    g = thermal_form(diag1, np.sinh(tau_p) ** 2)
    m = discriminant(f, g)
    expect = 1.0 - np.exp(2 * (tau_p - tau))
    assert np.allclose(np.linalg.eigvals(m), expect, atol=1e-12)
    assert hs_discriminant(f, g) == pytest.approx(2 * expect ** 2, rel=1e-10)


def test_discriminant_fock_vs_thermal(diag1):
    # 2x2 oracle: rho e^{-chi} for the pure form is gamma_S = diag(1, -1)
    # and e^{chi'} rho' = e^{2 tau'} diag(1, -1), so the product is
    # e^{2 tau'} times the identity on this block
    tau_p = 0.3
    f = fock_form(diag1)
    g = thermal_form(diag1, np.sinh(tau_p) ** 2)
    m = discriminant(f, g)
    expect = 1.0 - np.exp(2 * tau_p)
    assert np.allclose(m, expect * np.eye(2), atol=1e-12)
    mirrored = discriminant(g, f)
    assert np.allclose(mirrored, (1.0 - np.exp(-2 * tau_p)) * np.eye(2),
                       atol=1e-12)


def test_hs_discriminant_additive_over_blocks(diag1):
    f1 = thermal_form(diag1, 0.3)
    g1 = thermal_form(diag1, 0.7)
    f2 = thermal_form(diag1, 1.1)
    g2 = thermal_form(diag1, 0.2)
    lhs = hs_discriminant(direct_sum_form(f1, f2), direct_sum_form(g1, g2))
    rhs = hs_discriminant(f1, g1) + hs_discriminant(f2, g2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_classifier_invariants_under_transport(diag2, rng):
    f = thermal_form(diag2, [0.4, 0.9])
    g = thermal_form(diag2, [0.6, 0.2])
    base_bounds = norm_equivalence_bounds(f, g)
    base_hs = hs_discriminant(f, g)
    for _ in range(5):
        u = random_kappa_real(diag2, rng)
        fu, gu = transport_form(f, u), transport_form(g, u)
        bounds = norm_equivalence_bounds(fu, gu)
        assert bounds[0] == pytest.approx(base_bounds[0], abs=1e-10)
        assert bounds[1] == pytest.approx(base_bounds[1], abs=1e-10)
        assert hs_discriminant(fu, gu) == pytest.approx(base_hs, abs=1e-10)


def test_classify_pair_reports(diag1):
    f = fock_form(diag1)
    g = thermal_form(diag1, 0.5)
    rep = classify_pair(f, g)
    assert rep.classification == "BasisProjection"
    assert rep.classification_other == "Mixed"
    assert rep.projection_mismatch
    assert rep.hs_value > 0 and rep.hs_value_mirrored > 0
    same = classify_pair(g, g)
    assert not same.projection_mismatch and same.hs_value <= 1e-12


def test_state_distance_zero_and_closed_form(diag1):
    f = thermal_form(diag1, np.sinh(0.4) ** 2)
    assert state_distance_lower_bound(f, f) <= 1e-9
    # thermal pair: the doubled overlap is 1/cosh(tau - tau')
    for dtau in (0.1, 0.45, 0.9):
        g = thermal_form(diag1, np.sinh(0.4 + dtau) ** 2)
        got = state_distance_lower_bound(f, g)
        assert got == pytest.approx(2 * (1 - 1 / np.cosh(dtau)), abs=1e-10)


def test_state_distance_monotone_grid(diag1):
    base = thermal_form(diag1, np.sinh(0.3) ** 2)
    vals = []
    for step in range(1, 11):
        other = thermal_form(diag1, np.sinh(0.3 + 0.1 * step) ** 2)
        vals.append(state_distance_lower_bound(base, other))
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_state_distance_requires_interior(diag1):
    with pytest.raises(InvalidArgumentError):
        state_distance_lower_bound(fock_form(diag1), thermal_form(diag1, 0.5))


def test_mode_expression_language():
    f = mode_expression("1/sqrt(k)")
    assert f(4) == pytest.approx(0.5)
    g = mode_expression("(k + 1) / k**2")
    assert g(2) == pytest.approx(0.75)
    assert mode_expression("-0.3")(7) == -0.3
    with pytest.raises(ParseError):
        mode_expression("__import__('os')")
    with pytest.raises(ParseError):
        mode_expression("k; 2")


def test_family_from_json_errors():
    with pytest.raises(ParseError):
        family_from_json({"n_max": 3})
    with pytest.raises(ParseError):
        family_from_json({"generator": {"kind": "weird"}, "n_max": 3})
    with pytest.raises(ParseError):
        family_from_json({"generator": {"kind": "thermal_pair"}, "n_max": 0})


def test_family_oracles_small():
    # the 1/k tail bound needs roughly 8e3 modes to clear the threshold
    conv = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": "1/k", "tau_prime": "0"},
        "n_max": 9000,
    })
    assert classify_family(conv).outcome == "Equivalent"
    div = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": "1/sqrt(k)",
                      "tau_prime": "0"},
        "n_max": 10000,
    })
    assert classify_family(div).outcome == "Inequivalent"
    const = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": "0", "tau_prime": "0.3"},
        "n_max": 100,
    })
    assert classify_family(const).outcome == "Inequivalent"


def test_family_verdict_monotone_in_prefix():
    for n in (9000, 12000):
        fam = family_from_json({
            "generator": {"kind": "thermal_pair", "tau": "1/k",
                          "tau_prime": "0"},
            "n_max": n,
        })
        assert classify_family(fam).outcome == "Equivalent"
    for n in (200, 400, 800):
        fam = family_from_json({
            "generator": {"kind": "thermal_pair", "tau": "1/k**2",
                          "tau_prime": "0"},
            "n_max": n,
        })
        assert classify_family(fam).outcome == "Equivalent"


def test_family_short_prefix_inconclusive():
    fam = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": "1/k", "tau_prime": "0"},
        "n_max": 3,
    })
    assert classify_family(fam).outcome == "Inconclusive"


def test_family_norm_bound_branch(diag1):
    # a huge occupation on the first form collapses alpha below its floor
    fam = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": "8", "tau_prime": "0"},
        "n_max": 5,
    })
    verdict = classify_family(fam)
    assert verdict.outcome == "Inequivalent"
    assert verdict.evidence["alpha_inf"] <= 1e-3
    # and symmetrically for beta with the roles swapped
    fam2 = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": "0", "tau_prime": "8"},
        "n_max": 5,
    })
    verdict2 = classify_family(fam2)
    assert verdict2.outcome == "Inequivalent"
    assert verdict2.evidence["beta_sup"] >= 1e3


def test_family_threads_deterministic():
    fam = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": "1/k", "tau_prime": "0"},
        "n_max": 500,
    })
    v1 = classify_family(fam, threads=1)
    v4 = classify_family(fam, threads=4)
    assert v1.outcome == v4.outcome
    assert v1.evidence["total"] == v4.evidence["total"]
    assert v1.evidence["t"] == v4.evidence["t"]


def test_family_block_error_carries_index(diag1):
    def bad_block(k):
        if k == 3:
            raise ValueError("boom")
        return fock_form(diag1), fock_form(diag1)

    fam = ModeFamily(block=bad_block, n_max=5)
    with pytest.raises(InvalidArgumentError, match="block 3"):
        classify_family(fam)


def test_verdict_pure_function_of_evidence():
    ev = {"k": [1, 2, 3, 4], "t": [0.4, 0.1, 0.04, 0.02],
          "alpha": [1.0] * 4, "beta": [1.0] * 4}
    v1 = verdict_from_evidence(ev, FamilyConfig())
    v2 = verdict_from_evidence(ev, FamilyConfig())
    assert v1.outcome == v2.outcome


def test_explicit_family_kind(diag1):
    from qfsp.serialize import encode_complex_matrix, encode_phase_space

    blocks = []
    for nu, nu_p in ((0.2, 0.2), (0.4, 0.4)):
        blocks.append({
            "space": encode_phase_space(diag1),
            "Sigma": encode_complex_matrix(thermal_form(diag1, nu).sigma),
            "Sigma_prime": encode_complex_matrix(thermal_form(diag1, nu_p).sigma),
        })
    fam = family_from_json({"generator": {"kind": "explicit", "blocks": blocks},
                            "n_max": 2})
    f, g = fam.pair(1)
    assert hs_discriminant(f, g) <= 1e-12


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    same = (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and bool(same.all())


def _pair_oracle(fam):
    """Per-block evidence from the per-pair functions, one block at a time."""
    rows = []
    for k in range(1, fam.n_max + 1):
        f, g = fam.pair(k)
        rows.append((hs_discriminant(f, g), *norm_equivalence_bounds(f, g)))
    return [list(col) for col in zip(*rows)]


@pytest.mark.parametrize("tau, tau_prime", [
    ("1/k", "0"), ("1/sqrt(k)", "0"), ("0", "0.3"), ("1/k**2", "0"),
    ("8", "0"), ("0", "8"),
])
def test_batched_evidence_matches_pair_oracle(tau, tau_prime):
    fam = family_from_json({
        "generator": {"kind": "thermal_pair", "tau": tau, "tau_prime": tau_prime},
        "n_max": 10000,
    })
    ev = classify_family(fam).evidence
    t, alpha, beta = _pair_oracle(fam)
    assert _same_bits(ev["t"], t)
    assert _same_bits(ev["alpha"], alpha)
    assert _same_bits(ev["beta"], beta)


def test_explicit_family_evidence_matches_pair_oracle(diag2, rng):
    from qfsp.serialize import encode_complex_matrix, encode_phase_space

    blocks = []
    for _ in range(40):  # thermal pairs moved by one random real symplectic map
        u = random_kappa_real(diag2, rng)
        f = transport_form(thermal_form(diag2, rng.uniform(0.1, 2.0, 2)), u)
        g = transport_form(thermal_form(diag2, rng.uniform(0.1, 2.0, 2)), u)
        blocks.append({"space": encode_phase_space(f.space),
                       "Sigma": encode_complex_matrix(f.sigma),
                       "Sigma_prime": encode_complex_matrix(g.sigma)})
    fam = family_from_json({"generator": {"kind": "explicit", "blocks": blocks},
                            "n_max": len(blocks)})
    gram = fam.pair(1)[0].gram
    assert np.abs(gram - np.diag(np.diag(gram))).max() > 0.1  # not diagonal
    ev = classify_family(fam).evidence
    t, alpha, beta = _pair_oracle(fam)
    np.testing.assert_allclose(ev["t"], t, rtol=1e-12)
    np.testing.assert_allclose(ev["alpha"], alpha, rtol=1e-12)
    np.testing.assert_allclose(ev["beta"], beta, rtol=1e-12)


def test_family_first_failing_block_wins(diag1):
    def block(k):
        if k == 4:
            raise ValueError("cannot build")
        if k == 2:  # G_S = 0 is not positive definite
            return fock_form(diag1), QuasifreeForm(diag1, np.zeros((2, 2)))
        return fock_form(diag1), thermal_form(diag1, 0.5)

    with pytest.raises(InvalidArgumentError, match="block 2 failed"):
        classify_family(ModeFamily(block=block, n_max=6))
    with pytest.raises(InvalidArgumentError, match="block 4 failed: cannot build"):
        classify_family(ModeFamily(
            block=lambda k: block(k) if k != 2 else block(1), n_max=6))
    with pytest.raises(InvalidArgumentError, match="threads"):
        classify_family(ModeFamily(block=block, n_max=1), threads=0)


_LEAVES = st.one_of(
    st.just("k"),
    st.integers(0, 9).map(str),
    st.floats(0.05, 5.0).map(lambda x: repr(round(x, 3))),
)


def _expression_nodes(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "**"]), children)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda c: f"(-{c})"),
        st.tuples(st.sampled_from(["sqrt", "log", "exp", "abs"]), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _expression_nodes, max_leaves=8))
def test_mode_expression_array_matches_scalar(text):
    fn = mode_expression(text)
    # 37 values, so vectorised loops also run their remainder paths
    ks = np.concatenate([np.arange(1.0, 34.0), [100.0, 999.0, 1e4, 1e6]])
    values = fn(ks)
    assert values.shape == ks.shape and values.dtype == float
    scalars = [fn(int(k)) for k in ks]
    assert all(type(v) is float for v in scalars)
    assert _same_bits(values, scalars)
