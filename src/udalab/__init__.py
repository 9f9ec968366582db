"""udalab: certificates for uniqueness of quantum states given measurement data.

Core question: given expectation values of a set of Hermitian observables,
is the underlying pure state the only one compatible with them -- among pure
states, or among all states?  The package builds observable sets with
provable uniqueness guarantees, runs falsification engines when no structure
is available, and ships the geometry (numerical ranges, marginal linear
systems, state-space symmetries) that explains when the two notions of
uniqueness coincide.
"""

from .basis import expectation, gellmann_basis
from .certify import (
    CertificateOutcome,
    FeasibilityConfig,
    falsify_uda,
    gap_witness,
    ground_state_check,
    measure,
    uda_certify,
    udp_certify,
)
from .construction import (
    LineMatrixFamily,
    ObservableSet,
    complement_family,
    family_signature_check,
    line_length,
    totally_nonsingular_matrix,
    uda_observables,
)
from .linalg import eig_hermitian, interlacing_check, signature
from .numrange import boundary_sweep, qutrit_counterexample, uniqueness_consistency_scan
from .rdm import TripartiteState, build_system, ghz_family_check, mixed_uda_rank_test, uda_rank_test
from .states import partial_trace, random_density, random_pure
from .symmetry import (
    SymmetryElement,
    SymmetryGroup,
    average_projection,
    commutant,
    fixed_point_space,
    is_star_algebra,
    realizable_fixed_dims,
    udp_implies_uda_via_symmetry,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateOutcome",
    "FeasibilityConfig",
    "LineMatrixFamily",
    "ObservableSet",
    "SymmetryElement",
    "SymmetryGroup",
    "TripartiteState",
    "average_projection",
    "boundary_sweep",
    "build_system",
    "commutant",
    "complement_family",
    "eig_hermitian",
    "expectation",
    "falsify_uda",
    "family_signature_check",
    "fixed_point_space",
    "gap_witness",
    "gellmann_basis",
    "ghz_family_check",
    "ground_state_check",
    "interlacing_check",
    "is_star_algebra",
    "line_length",
    "measure",
    "mixed_uda_rank_test",
    "partial_trace",
    "qutrit_counterexample",
    "random_density",
    "random_pure",
    "realizable_fixed_dims",
    "signature",
    "totally_nonsingular_matrix",
    "uda_certify",
    "uda_observables",
    "uda_rank_test",
    "udp_certify",
    "udp_implies_uda_via_symmetry",
    "uniqueness_consistency_scan",
]
