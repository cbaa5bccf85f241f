"""Minimal-surface geometry in the 4-sphere on periodic parameter grids.

Pipeline: sampled immersions (catalog or manifest) -> pointwise invariants
(curvature ellipse axes, Gauss and normal curvature, Hopf coefficient) ->
isometric deformation family by moving-frame integration -> deck-group
monodromy, closing set and integral identity checks.

The public API is the classes and functions the command line imports,
plus the oracles that tests/test_api.py states.  Every other name is
imported from its module (s4min.grid.GridPatch, ...).
"""

from types import ModuleType as _ModuleType

from .grid import InputError
from .surface import (
    ImmersionField,
    flip_normal_orientation,
    frame_orthonormality_residual,
    normal_frame,
    rotate_normal_frame,
    second_fundamental_entries,
    shape_invariants,
    shape_report,
    tangent_frame,
)
from .catalog import (
    catalog_names,
    load_catalog,
    perturb_immersion,
    read_manifest,
    write_manifest,
)
from .adapted import (
    hopf_coefficient,
    hopf_differential,
    superminimality_test,
    winding_number,
    zero_orders,
)
from .family import (
    CongruenceFit,
    IntegrabilityBroken,
    MaurerCartanField,
    assemble_maurer_cartan,
    coframe,
    congruence_residual,
    congruence_test,
    connection_data,
    deformation_invariant_deviation,
    deformed_immersion,
    flatness_residual,
    frame_reconstruction_residual,
    frame_source_deviation,
    integrate_frame,
)
from .monodromy import dichotomy_report, scan_profile
from .topology import (
    euler_numbers,
    laplace_identity_residual,
    synthetic_zero_field,
    topology_report,
)

# the public API is exactly the names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
