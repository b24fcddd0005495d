"""Quasifree modular data on the doubled truncated Fock space.

For a strictly mixed form (spectrum inside (0, 1)) the one-particle modular
Hamiltonian is H_S = log(S (1-S)^-1).  On the doubling, diag(H_S, H_S)
commutes with the doubled projection and restricts to an m x m matrix h on
the mode space; Delta^z = Gamma(e^{-z h}), generated by the normal-ordered
dGamma(h), is exact on every sector, the top one included.  The
conjugation swaps the two copies through Gamma and second-quantizes
antilinearly.

Delta^z and J conserve particle number, and the residual suite applies them
only to vectors in sectors <= 2, so ``ModularData`` applies them through
``fock._sym_power_apply``, which builds blocks only up to the operand's top
sector.  The whole operators (``delta_power``, ``conjugation``) are built
through ``fock.second_quantize_unitary`` on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryError, InternalConsistencyError
from .fock import (
    FockOperator,
    TruncatedFock,
    _sym_power_apply,
    second_quantize_unitary,
)
from .quasifree import DoubledSpace, QuasifreeForm

__all__ = [
    "ModularData",
    "one_particle_modular",
    "modular_generator",
    "build_modular",
    "delta_power",
    "tomita_residual",
    "kms_residual",
]

BOUNDARY_EPS = 1e-6
OMEGA_COMMUTE_TOL = 1e-9
OMEGA_ANTIUNITARY_TOL = 1e-8


def one_particle_modular(form: QuasifreeForm) -> np.ndarray:
    """log(S_op (1 - S_op)^-1); needs the spectrum strictly inside (0, 1)."""
    vals, vecs = form.s_eig
    if vals.min() < BOUNDARY_EPS or vals.max() > 1.0 - BOUNDARY_EPS:
        raise BoundaryError(
            f"spectrum touches the boundary of (0,1): [{vals.min():.3e}, "
            f"{vals.max():.6f}]"
        )
    return form.calculus.fn_of_eig(vals, vecs, np.log(vals / (1.0 - vals)))


def _mode_hamiltonian(fk: TruncatedFock, h_s: np.ndarray) -> np.ndarray:
    """h = M* G_S diag(H_S, H_S) M on the mode space of the doubled projection.

    The block pair must commute with the doubled projection: that makes its
    quantization conserve particle number and h its exact restriction.
    """
    hat_h = np.kron(np.eye(2), h_s)
    p = fk.form.s_op
    leak = np.linalg.norm(hat_h @ p - p @ hat_h, 2)
    if leak > 1e-10 * max(1.0, np.linalg.norm(hat_h, 2)):
        raise InternalConsistencyError(
            f"modular generator does not commute with the doubled projection: "
            f"{leak:.3e}"
        )
    h = fk.mode_coords(hat_h @ fk.mode_basis)
    return 0.5 * (h + h.conj().T)


def modular_generator(fk: TruncatedFock, h: np.ndarray) -> FockOperator:
    """Normal-ordered dGamma(h) = sum_ij h_ij bdag_i b_j of the m x m
    mode-space h, stored as CSR; it annihilates the vacuum, conserves
    particle number and, being normal ordered, is exact on every sector."""
    return FockOperator(fk._quadratic(h, 0, 0))


def _conjugation_mode(dd: DoubledSpace, fk: TruncatedFock) -> np.ndarray:
    """m x m matrix of the copy swap composed with Gamma on the mode space.

    The one-particle map omega(f + g) = Gamma g + Gamma f commutes with the
    doubled projection and is antiunitary on its range; both facts are
    validated before it is returned.
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
    if np.linalg.norm(commute, 2) > OMEGA_COMMUTE_TOL:
        raise InternalConsistencyError(
            "omega does not commute with the doubled projection"
        )
    j_mode = fk.mode_coords(omega_linear @ np.conj(fk.mode_basis))
    unit_res = np.linalg.norm(j_mode.conj().T @ j_mode - np.eye(fk.modes), 2)
    invol_res = np.linalg.norm(j_mode @ np.conj(j_mode) - np.eye(fk.modes), 2)
    if max(unit_res, invol_res) > OMEGA_ANTIUNITARY_TOL:
        raise InternalConsistencyError(
            f"restricted conjugation is not antiunitary "
            f"(unitary {unit_res:.3e}, involution {invol_res:.3e})"
        )
    return j_mode


@dataclass(frozen=True)
class ModularData:
    """Modular data on the doubling: the m x m Hermitian ``mode_hamiltonian``
    h, ``generator`` dGamma(h), powers Delta^z = Gamma(e^{-z h}) and the
    conjugation J = Gamma(j_mode) conj, with ``j_mode`` the validated m x m
    mode matrix of the copy swap."""

    one_particle: np.ndarray
    mode_hamiltonian: np.ndarray
    j_mode: np.ndarray
    fock: TruncatedFock

    @cached_property
    def generator(self) -> FockOperator:
        """dGamma(h), assembled on first use."""
        return modular_generator(self.fock, self.mode_hamiltonian)

    @cached_property
    def conjugation(self) -> FockOperator:
        """J as a whole antilinear operator, assembled on first use."""
        gamma = second_quantize_unitary(self.fock, self.j_mode)
        return FockOperator(gamma._op, antilinear=True)

    @cached_property
    def _h_eigh(self):
        """Eigendecomposition of the mode-space h, taken once."""
        return np.linalg.eigh(self.mode_hamiltonian)

    def _delta_mode(self, z: complex) -> np.ndarray:
        """e^{-z h} through the cached eigendecomposition."""
        vals, vecs = self._h_eigh
        return (vecs * np.exp(-z * vals)) @ vecs.conj().T

    def delta_power(self, z: complex) -> FockOperator:
        """Delta^z = Gamma(e^{-z h}) as a whole operator."""
        return second_quantize_unitary(self.fock, self._delta_mode(z))

    def delta_unitary(self, t: float) -> FockOperator:
        """Delta^{it} = Gamma(e^{-i t h})."""
        return self.delta_power(1j * t)

    def delta_power_apply(self, z: complex, x: np.ndarray) -> np.ndarray:
        """Delta^z x, built only up to the top sector of x."""
        return _sym_power_apply(self.fock, self._delta_mode(z), x)

    def conjugation_apply(self, x: np.ndarray) -> np.ndarray:
        """J x, built only up to the top sector of x."""
        return _sym_power_apply(self.fock, self.j_mode, np.conj(x))


def build_modular(dd: DoubledSpace, fk: TruncatedFock) -> ModularData:
    h_s = one_particle_modular(dd.base)
    h = _mode_hamiltonian(fk, h_s)
    return ModularData(
        one_particle=h_s,
        mode_hamiltonian=h,
        j_mode=_conjugation_mode(dd, fk),
        fock=fk,
    )


def delta_power(md: ModularData, z: float) -> FockOperator:
    return md.delta_power(z)


def tomita_residual(md: ModularData, a: FockOperator,
                    a_star: FockOperator) -> float:
    """|| J Delta^(1/2) A Psi - A^* Psi ||, zero in exact modular theory."""
    fk = md.fock
    vec = md.conjugation_apply(md.delta_power_apply(0.5, a.apply(fk.vacuum)))
    return float(np.linalg.norm(vec - a_star.apply(fk.vacuum)))


def kms_residual(md: ModularData, a: FockOperator, b: FockOperator) -> float:
    """| <Psi, A Delta B Psi> - <Psi, B A Psi> |."""
    fk = md.fock
    left = np.vdot(fk.vacuum, a.apply(md.delta_power_apply(1.0, b.apply(fk.vacuum))))
    right = np.vdot(fk.vacuum, b.apply(a.apply(fk.vacuum)))
    return float(abs(left - right))
