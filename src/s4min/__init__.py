"""Minimal-surface geometry in the 4-sphere on periodic parameter grids.

Pipeline: sampled immersions (catalog or manifest) -> pointwise invariants
(curvature ellipse axes, Gauss and normal curvature, Hopf coefficient) ->
isometric deformation family by moving-frame integration -> deck-group
monodromy, closing set and integral identity checks.
"""

from types import ModuleType as _ModuleType

from .grid import (
    GridPatch,
    InputError,
    MetricField,
    diff,
    integrate,
    laplace_beltrami,
    quadrature_weights,
)
from .surface import (
    ImmersionField,
    NormalFrameField,
    ShapeReport,
    fd_jets,
    flip_normal_orientation,
    frame_orthonormality_residual,
    normal_frame,
    rotate_normal_frame,
    second_fundamental_form,
    shape_report,
    tangent_frame,
)
from .catalog import (
    CatalogEntry,
    catalog_names,
    clifford_torus,
    geodesic_sphere,
    load_catalog,
    perturb_immersion,
    read_manifest,
    veronese_sphere,
    write_manifest,
)
from .adapted import (
    SuperminimalityReport,
    ZeroOrder,
    find_zero_candidates,
    hopf_coefficient,
    hopf_differential,
    superminimality_test,
    winding_number,
    zero_orders,
)
from .family import (
    ConnectionData,
    CongruenceFit,
    DeformedPatch,
    IntegrabilityBroken,
    MaurerCartanField,
    assemble_maurer_cartan,
    congruence_test,
    connection_data,
    deformation_invariant_deviation,
    deformed_immersion,
    flatness_residual,
    frame_reconstruction_residual,
    integrate_frame,
)

from .monodromy import (
    MonodromyProfile,
    dichotomy_report,
    generator_monodromy,
    scan_profile,
)
from .topology import (
    BalanceCheck,
    IntegerVerdict,
    TopologyReport,
    ZeroCount,
    balance_residuals,
    euler_numbers,
    laplace_identity_residual,
    ricci_condition_residual,
    synthetic_zero_field,
    topology_report,
    zero_count_excised,
)

# the public API is exactly the names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
