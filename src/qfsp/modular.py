"""Quasifree modular data on the doubled truncated Fock space.

For a strictly mixed form (spectrum inside (0, 1)) the one-particle modular
Hamiltonian is log(S (1-S)^-1).  On the doubling, the matching generator is
the block pair diag(H_S, H_S): relative to the doubled form it conserves
particle number, annihilates the vacuum after the scalar subtraction, and
implements the flow B(f + 0) -> B(e^{itH_S} f + 0).  The conjugation swaps
the two copies through Gamma and second-quantizes antilinearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryError, InternalConsistencyError
from .fock import FockOperator, TruncatedFock, second_quantize_unitary
from .quasifree import DoubledSpace, QuasifreeForm
from .sp_algebra import Hamiltonian, quantize

__all__ = [
    "ModularData",
    "one_particle_modular",
    "modular_generator",
    "modular_conjugation",
    "build_modular",
    "delta_power",
    "tomita_residual",
    "kms_residual",
]


def one_particle_modular(form: QuasifreeForm, eps: float = 1e-6) -> np.ndarray:
    """log(S_op (1 - S_op)^-1); needs the spectrum strictly inside (0, 1)."""
    vals, vecs = form.s_eig
    if vals.min() < eps or vals.max() > 1.0 - eps:
        raise BoundaryError(
            f"spectrum touches the boundary of (0,1): [{vals.min():.3e}, "
            f"{vals.max():.6f}]"
        )
    return form.calculus.fn_of_eig(vals, vecs, np.log(vals / (1.0 - vals)))


def modular_generator(dd: DoubledSpace, fk: TruncatedFock,
                      eps: float = 1e-6,
                      structure_tol: float = 1e-10) -> FockOperator:
    """Vacuum-annihilating generator of the modular flow on the doubling.

    Built as q(diag(H_S, H_S)) minus its vacuum expectation.  That block
    generator commutes with the doubled projection, so the quantization is
    number conserving in exact arithmetic; the numerically enforced block
    structure is validated against what it removes.
    """
    h = one_particle_modular(dd.base, eps)
    d = dd.base.space.dim
    hat_h = np.zeros((2 * d, 2 * d), dtype=complex)
    hat_h[:d, :d] = h
    hat_h[d:, d:] = h
    q = quantize(fk, Hamiltonian(hat_h)).matrix
    q = 0.5 * (q + q.conj().T)
    # exact arithmetic makes q block diagonal over total particle number
    totals = fk.totals
    off_block = np.abs(totals[:, None] - totals[None, :]) > 0
    removed = np.linalg.norm(q[off_block])
    scale = max(1.0, np.linalg.norm(q))
    if removed > structure_tol * scale:
        raise InternalConsistencyError(
            f"modular generator leaks across number sectors: {removed:.3e}"
        )
    q = np.where(off_block, 0.0, q)
    vac = q[0, 0]
    theta = q - vac.real * np.eye(fk.dim)
    return FockOperator(theta)


def modular_conjugation(dd: DoubledSpace, fk: TruncatedFock,
                        tol: float = 1e-10) -> FockOperator:
    """Antilinear conjugation: copy swap composed with Gamma, quantized.

    The one-particle map omega(f + g) = Gamma g + Gamma f commutes with the
    doubled projection and is antiunitary on its range; both facts are
    validated before the symmetric-power lift.
    """
    base = dd.base
    d = base.space.dim
    c = base.space.C
    omega_linear = np.zeros((2 * d, 2 * d), dtype=complex)
    omega_linear[:d, d:] = c
    omega_linear[d:, :d] = c
    # omega as an antilinear map is h -> omega_linear conj(h)
    p = fk.form.s_op
    commute = omega_linear @ np.conj(p) - p @ omega_linear
    if np.linalg.norm(commute, 2) > max(tol, 1e-9):
        raise InternalConsistencyError(
            "omega does not commute with the doubled projection"
        )
    modes = fk.mode_basis
    gram = fk.form.gram
    j_mode = modes.conj().T @ gram @ (omega_linear @ np.conj(modes))
    unit_res = np.linalg.norm(j_mode.conj().T @ j_mode - np.eye(fk.modes), 2)
    invol_res = np.linalg.norm(j_mode @ np.conj(j_mode) - np.eye(fk.modes), 2)
    if max(unit_res, invol_res) > max(tol, 1e-8):
        raise InternalConsistencyError(
            f"restricted conjugation is not antiunitary "
            f"(unitary {unit_res:.3e}, involution {invol_res:.3e})"
        )
    lifted = second_quantize_unitary(fk, j_mode)
    return FockOperator(lifted.matrix, antilinear=True)


@dataclass(frozen=True)
class ModularData:
    one_particle: np.ndarray
    generator: FockOperator
    conjugation: FockOperator
    fock: TruncatedFock

    @cached_property
    def _theta_eigh(self):
        """Eigendecomposition of the hermitized generator, taken once."""
        theta = self.generator.matrix
        return np.linalg.eigh(0.5 * (theta + theta.conj().T))

    def _theta_fn(self, c) -> np.ndarray:
        """exp(c Theta) through the cached eigendecomposition."""
        vals, vecs = self._theta_eigh
        return (vecs * np.exp(c * vals)) @ vecs.conj().T

    def delta_power(self, z: float) -> np.ndarray:
        """Delta^z = exp(-z Theta)."""
        return self._theta_fn(-z)

    def delta_unitary(self, t: float) -> np.ndarray:
        """Delta^{it} = exp(-i t Theta)."""
        return self._theta_fn(-1j * t)


def build_modular(dd: DoubledSpace, fk: TruncatedFock,
                  eps: float = 1e-6) -> ModularData:
    return ModularData(
        one_particle=one_particle_modular(dd.base, eps),
        generator=modular_generator(dd, fk, eps),
        conjugation=modular_conjugation(dd, fk),
        fock=fk,
    )


def delta_power(md: ModularData, z: float) -> np.ndarray:
    return md.delta_power(z)


def tomita_residual(md: ModularData, a: FockOperator,
                    a_star: FockOperator) -> float:
    """|| J Delta^(1/2) A Psi - A^* Psi ||, zero in exact modular theory."""
    fk = md.fock
    vec = a.apply(fk.vacuum)
    vec = md.delta_power(0.5) @ vec
    vec = md.conjugation.apply(vec)
    return float(np.linalg.norm(vec - a_star.apply(fk.vacuum)))


def kms_residual(md: ModularData, a: FockOperator, b: FockOperator) -> float:
    """| <Psi, A Delta B Psi> - <Psi, B A Psi> |."""
    fk = md.fock
    left = np.vdot(fk.vacuum, a.apply(md.delta_power(1.0) @ b.apply(fk.vacuum)))
    right = np.vdot(fk.vacuum, b.apply(a.apply(fk.vacuum)))
    return float(abs(left - right))
