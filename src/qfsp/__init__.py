"""Quasifree CCR states, Bogoliubov implementers and their classification,
modeled at finite dimension with a truncated Fock level."""

__version__ = "0.1.0"

from .errors import (
    BoundaryError,
    DegenerateFormError,
    DegenerateInputError,
    GeometryError,
    InconclusiveError,
    InternalConsistencyError,
    InvalidArgumentError,
    NotAProjectionError,
    ParseError,
    QfspError,
    SpectralSingularityError,
    TruncationError,
)
from .phase_space import (
    PhaseSpace,
    Presentation,
    build_standard,
    gamma_adjoint,
    symplectic_extension,
    validate_phase_space,
)
from .quasifree import (
    DoubledSpace,
    QuasifreeForm,
    chi,
    double,
    fock_form,
    moment,
    rho,
    spectral_split,
    symplectic_complement,
    thermal_form,
    transport_form,
    validate_form,
)
from .fock import (
    FockOperator,
    TruncatedFock,
    build_fock,
    exponential_vector,
    factorization_check,
    field_operator,
    number_operator,
    parity_split,
    second_quantize_unitary,
    weyl,
)
from .sp_algebra import (
    Hamiltonian,
    basis_hamiltonian,
    cyclic_span,
    lie_residual,
    quantize,
    rank_decompose,
    validate_hamiltonian,
)
from .implementers import (
    PolarParts,
    SymplecticMap,
    bogoliubov_u,
    cocycle_sign,
    dP_distance,
    implement_T,
    implement_T_apply,
    metaplectic,
    metaplectic_apply,
    polar,
    theta,
    vacuum_overlap,
    validate_symplectic,
)
from .classifier import (
    FamilyConfig,
    ModeFamily,
    Verdict,
    classify_family,
    classify_pair,
    discriminant,
    family_from_json,
    hs_discriminant,
    norm_equivalence_bounds,
    state_distance_lower_bound,
)
from .modular import (
    ModularData,
    build_modular,
    kms_residual,
    modular_generator,
    one_particle_modular,
    tomita_residual,
)
