import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfsp.errors import DegenerateFormError
from qfsp.linalg import (
    MetricCalculus,
    adjoint,
    hs_norm,
    op_norm,
    pairwise_sum,
)


def random_metric(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a @ a.conj().T + d * np.eye(d)


def test_adjoint_is_involutive():
    rng = np.random.default_rng(1)
    m = random_metric(rng, 5)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    twice = adjoint(adjoint(a, m), m)
    assert np.linalg.norm(twice - a) < 1e-12


def test_adjoint_reverses_products():
    rng = np.random.default_rng(2)
    m = random_metric(rng, 4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = adjoint(a @ b, m)
    rhs = adjoint(b, m) @ adjoint(a, m)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_hs_norm_positive_and_zero():
    rng = np.random.default_rng(3)
    m = random_metric(rng, 4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert hs_norm(a, m) > 0
    assert hs_norm(np.zeros((4, 4)), m) == 0.0


def test_op_norm_matches_euclidean_for_identity_metric():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    assert op_norm(a, np.eye(6)) == pytest.approx(np.linalg.norm(a, 2))


def test_op_norm_metric_invariance():
    # congruence-transported operator has the same metric norm
    rng = np.random.default_rng(5)
    m = random_metric(rng, 5)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    lo = np.linalg.cholesky(m)
    tilde = lo.conj().T @ a @ np.linalg.inv(lo.conj().T)
    assert op_norm(a, m) == pytest.approx(np.linalg.norm(tilde, 2), rel=1e-10)


def test_calculus_function_reproduces_power():
    rng = np.random.default_rng(6)
    m = random_metric(rng, 5)
    calc = MetricCalculus(m)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = calc.from_hermitian(calc.to_hermitian(h @ h.conj().T, check=False))
    sq = calc.fn(a, lambda v: v ** 2)
    assert np.linalg.norm(sq - a @ a) < 1e-8 * np.linalg.norm(a @ a)


def test_calculus_rejects_indefinite_metric():
    with pytest.raises(DegenerateFormError):
        MetricCalculus(np.diag([1.0, -1.0]))


def test_calculus_rejects_non_finite_metric():
    for bad in (np.nan, np.inf):
        with pytest.raises(DegenerateFormError, match="non-finite"):
            MetricCalculus(np.array([[1.0, bad], [bad, 1.0]]))


def test_orthonormalize_gram_identity():
    rng = np.random.default_rng(7)
    m = random_metric(rng, 6)
    calc = MetricCalculus(m)
    cols = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    basis = calc.orthonormalize(cols)
    assert basis.shape[1] == 6
    gram = basis.conj().T @ m @ basis
    assert np.linalg.norm(gram - np.eye(6)) < 1e-12


def test_orthonormalize_drops_dependent_columns():
    calc = MetricCalculus(np.eye(3))
    v = np.array([1.0, 2.0, 0.0], dtype=complex)
    basis = calc.orthonormalize(np.stack([v, 2 * v, 1j * v], axis=1))
    assert basis.shape[1] == 1


def test_pairwise_sum_matches_plain_sum():
    rng = np.random.default_rng(8)
    vals = list(rng.normal(size=101))
    assert pairwise_sum(vals) == pytest.approx(sum(vals), rel=1e-12)
    assert pairwise_sum([]) == 0.0


def _list_pairwise_sum(values):
    """The list-based tree pairwise_sum replaced, kept as its bitwise oracle."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _bits(x: float) -> int:
    return int(np.array([x], dtype=float).view(np.int64)[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=70))
def test_pairwise_sum_bitwise_matches_list_tree(values):
    got = pairwise_sum(values)
    want = _list_pairwise_sum(values)
    assert type(got) is float
    assert _bits(got) == _bits(want) or (np.isnan(got) and np.isnan(want))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, 2, 3, 1023, 1025, 65537]),
                 st.integers(0, 20000)),
       st.integers(0, 2**32 - 1))
def test_pairwise_sum_bitwise_large(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
    assert _bits(pairwise_sum(values)) == _bits(_list_pairwise_sum(values.tolist()))
