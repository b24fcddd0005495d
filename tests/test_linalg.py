import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix

from conftest import expm_apply_reference
from qfsp import Presentation, build_standard
from qfsp.errors import DegenerateFormError
from qfsp.linalg import (
    MetricCalculus,
    adjoint,
    block_diag,
    expm_apply,
    hs_norm,
    op_norm,
    pairwise_sum,
)
from qfsp.phase_space import PhaseSpace
from qfsp.quasifree import QuasifreeForm, direct_sum_form, double, thermal_form


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


def _expm_extended(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(a) x by scaling and squaring a Taylor series in long double.

    The oracle must be more accurate than the 1e-12 it checks: at 1-norm 8
    scipy.linalg.expm can be off by 1e-12 relative, while this one stays
    near the long double epsilon (1e-19 on x86)."""
    a = np.asarray(a, dtype=np.clongdouble)
    squarings = max(0, int(np.ceil(np.log2(np.abs(a).sum(axis=0).max() / 0.25))))
    b = a / np.longdouble(2.0) ** squarings
    term = np.eye(len(a), dtype=np.clongdouble)
    e = term.copy()
    for j in range(1, 20):  # ||b|| <= 1/4, so the remainder is below 1e-30
        term = term @ b / j
        e = e + term
    for _ in range(squarings):
        e = e @ e
    return (e @ x).astype(complex)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.floats(0.05, 0.7), st.booleans(),
       st.floats(0.1, 30.0), st.integers(0, 4), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_expm_apply_matches_reference_and_dense_expm(n, density, real, norm,
                                                     columns, fortran, seed):
    """Bitwise equal to the loop it replaced, in values and memory layout,
    within 1e-12 of the dense exponential taken in long double, and the
    operand is left as it was.  Block operands come in C and F order (the
    cocycle's columns of the identity are F order)."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n))
    if not real:
        dense = dense + 1j * rng.normal(size=(n, n))
    dense[rng.random((n, n)) > density] = 0.0
    dense[0, 0] += 1.0  # never the zero matrix
    a = csr_matrix(dense * (norm / np.abs(dense).sum(axis=0).max()))
    shape = (n, columns) if columns else (n,)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if fortran:
        x = np.asfortranarray(x)
    x_bytes = x.tobytes()
    got, ref = expm_apply(a, x), expm_apply_reference(a, x)
    assert got.tobytes() == ref.tobytes() and got.strides == ref.strides
    want = _expm_extended(a.toarray(), x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert x.tobytes() == x_bytes


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_blocks = st.lists(
    st.tuples(st.sampled_from([np.float64, np.complex128]),
              st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda t: arrays(t[0], (t[1], t[2]),
                         elements=st.floats(allow_nan=False, width=64)
                         if t[0] is np.float64 else
                         st.complex_numbers(allow_nan=False, width=128))),
    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_blocks)
@example([np.array([[-0.0]]), np.array([[-1.5 - 0.0j]])])
@example([np.array([[2.0]])])
def test_block_diag_matches_scipy_bitwise(blocks):
    """Same dtype, shape and bits as scipy's block_diag on real, complex and
    mixed blocks (1x1 included), and every entry off the blocks is +0.0."""
    out = block_diag(*blocks)
    assert _same_bits(out, sla.block_diag(*blocks))
    on_block = np.zeros(out.shape, dtype=bool)
    r = c = 0
    for b in blocks:
        on_block[r:r + b.shape[0], c:c + b.shape[1]] = True
        r, c = r + b.shape[0], c + b.shape[1]
    off = out[~on_block]
    assert not np.signbit(off.real).any() and not np.signbit(off.imag).any()
    assert (off == 0).all()


def test_block_diag_callers_match_scipy_bitwise():
    """Each caller of block_diag builds the matrices scipy's block_diag built."""
    for presentation in Presentation:
        one = build_standard(1, presentation)
        for n in (1, 3):
            ps = build_standard(n, presentation)
            assert _same_bits(ps.G, sla.block_diag(*[one.G] * n).astype(complex))
            assert _same_bits(ps.C, sla.block_diag(*[one.C] * n).astype(complex))
    sp = build_standard(2, Presentation.DIAGONAL)
    form = thermal_form(sp, 0.7)
    hat = double(form).hat_space
    assert _same_bits(hat.G, sla.block_diag(sp.G, -sp.G))
    assert _same_bits(hat.C, sla.block_diag(sp.C, sp.C))
    other = thermal_form(build_standard(1, Presentation.POSITION), 0.3)
    got = direct_sum_form(form, other)
    want = QuasifreeForm(PhaseSpace(sla.block_diag(form.space.G, other.space.G),
                                    sla.block_diag(form.space.C, other.space.C)),
                         sla.block_diag(form.sigma, other.sigma))
    for a, b in ((got.space.G, want.space.G), (got.space.C, want.space.C),
                 (got.sigma, want.sigma)):
        assert _same_bits(a, b)
