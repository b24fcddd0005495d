from itertools import combinations_with_replacement

import numpy as np
import pytest

from qfsp import Presentation, build_standard
from qfsp.quasifree import fock_form, thermal_form


@pytest.fixture
def diag1():
    return build_standard(1, Presentation.DIAGONAL)


@pytest.fixture
def diag2():
    return build_standard(2, Presentation.DIAGONAL)


@pytest.fixture
def pos1():
    return build_standard(1, Presentation.POSITION)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def occupation_tuples(modes: int, cutoff: int) -> list:
    """All tuples with nonnegative entries and total <= cutoff, ordered by
    total then lexicographically; index 0 is the vacuum.  The oracle of the
    order of ``TruncatedFock.occ``."""
    out = []
    for total in range(cutoff + 1):
        for slots in combinations_with_replacement(range(modes), total):
            occ = [0] * modes
            for s in slots:
                occ[s] += 1
            out.append(tuple(occ))
    # combinations_with_replacement gives a deterministic but non-lex order
    # within a sector; sort for a stable, documented layout
    out.sort(key=lambda occ: (sum(occ), occ))
    return out


def squeeze(r: float) -> np.ndarray:
    """Real squeeze matrix in the 1-mode Diagonal coordinates."""
    return np.array([[np.cosh(r), np.sinh(r)], [np.sinh(r), np.cosh(r)]],
                    dtype=complex)


def real_vec(rng, amp: float) -> np.ndarray:
    """Gamma-fixed vector of the 1-mode Diagonal space with |a| <= amp."""
    a = amp * (rng.uniform(0.2, 1.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return np.array([a, np.conj(a)])


def random_kappa_real(ps, rng, scale=0.3) -> np.ndarray:
    """Random real-matrix symplectic map via a purely imaginary Hamiltonian."""
    import scipy.linalg as sla
    from qfsp.sp_algebra import hamiltonian_projection

    raw = (rng.normal(size=(ps.dim, ps.dim))
           + 1j * rng.normal(size=(ps.dim, ps.dim))) * scale
    h = hamiltonian_projection(ps, raw)
    h_imag = 0.5 * (h.op - np.conj(h.op))
    return sla.expm(1j * h_imag).real.astype(complex)


def implementer(fk, h):
    """Q(H) = exp(i q(H)) as a dense FockOperator; conjugation by it sends
    B(f) to B(e^{iH} f) on low sectors."""
    from qfsp.fock import FockOperator
    from qfsp.linalg import expm_apply
    from qfsp.sp_algebra import _quantize_csr

    return FockOperator(expm_apply(1j * _quantize_csr(fk, h),
                                   np.eye(fk.dim, dtype=complex)))


def expm_apply_reference(a, x):
    """``linalg.expm_apply`` as first written: a new array for every term,
    complex division by steps * j, and the exact ``||out||_inf`` on every
    term.  The bitwise oracle of the in-place loop."""
    from scipy.sparse import identity
    from qfsp.linalg import _TAYLOR_THETA

    out = np.asarray(x, dtype=complex)
    mu = a.diagonal().mean()
    a = a - mu * identity(a.shape[0], format="csr")
    norm = abs(a).sum(axis=0).max()
    degree, steps = min(((m, max(1, int(np.ceil(norm / theta))))
                         for m, theta in _TAYLOR_THETA.items()),
                        key=lambda ms: ms[0] * ms[1])
    for _ in range(steps):
        term, prev = out, np.linalg.norm(out, np.inf)
        for j in range(1, degree + 1):
            term = (a @ term) / (steps * j)
            size = np.linalg.norm(term, np.inf)
            out = out + term
            if prev + size <= 2.0 ** -53 * np.linalg.norm(out, np.inf):
                break
            prev = size
        out = np.exp(mu / steps) * out
    return out


def sym_power_apply_reference(fk, r, x):
    """Gamma(r) @ x through the whole operator on every sector, the bitwise
    oracle of the sector-limited ``fock._sym_power_apply``."""
    from qfsp.fock import second_quantize_unitary

    return second_quantize_unitary(fk, r).apply(np.asarray(x, dtype=complex))
