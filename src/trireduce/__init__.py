"""Reduced (ro-vibrational) dynamics of three-body systems in Jacobi shape
coordinates, with a well-defined Hamiltonian value at collinear shapes and
a Cartesian-dynamics oracle for validation."""

from .errors import (
    ConfigError,
    DegenerateShape,
    DomainError,
    NumericalBlowup,
    PotentialSyntaxError,
    SingularInertia,
    TrireduceError,
    UnknownIdentifier,
)
from .geometry import (
    BodyMomenta,
    CartesianState,
    MassTriple,
    ShapeCoordinates,
    cartesian_from_jacobi,
    reduced_masses,
    shape_to_distances,
)
from .reduction import (
    BodyVelocityState,
    body_angular_momentum,
    body_velocities,
    gauge_potential,
    horizontal_metric,
    inertia_inverse,
    inertia_tensor,
    kinetic_energy_body,
    mechanical_connection,
    shape_momenta,
    velocities_from_momenta,
)
from .hamiltonian import (
    ReducedEvaluation,
    evaluate_reduced,
    reduced_hamiltonian,
    singular_term,
)
from .potential import (
    PotentialSpec,
    builtin_potential,
    forces_cartesian,
    parse_potential,
)
from .dynamics import (
    CollinearPassages,
    IntegratorConfig,
    Trajectory,
    conservation_report,
    detect_collinear_passages,
    integrate,
    total_energy,
)

__version__ = "0.1.0"
