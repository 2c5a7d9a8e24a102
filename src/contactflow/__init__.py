"""Contact geometry of the 3-sphere.

Numerics for the standard contact structure on S^3: the contact form and
its associated metric, contact vector fields and their Lagrange bracket,
right- and bi-invariant metrics on the group of exact contact
transformations, the corresponding Euler flow with its first integrals,
sectional curvature in three independent formulations, and the classical
curl identities relating contact fields to divergence-free fields.
"""

import types

from .geometry import (
    QuadratureS3,
    verify_axioms,
    VOL_S3,
    FIBER_FACTOR,
)
from .harmonics import (
    GridFunction,
    SpectralFunction,
    SphereGrid,
    analyze,
    eigenvalue,
    inner_M,
    synthesize,
)
from .fields import FrameField, contact_field, contact_field_at
from .bracket import (
    StructureConstants,
    basis_function,
    basis_index,
    basis_lm,
    basis_size,
    lagrange_bracket,
    structure_constants,
)
from .metrics import MetricKind, biinvariant_inner, energy_inner, inner
from .flow import (
    BlowUpError,
    FlowResult,
    FlowState,
    IntegratorConfig,
    evolve,
)
from .curvature import (
    SectionPlane,
    k_biinvariant,
    k_eigen,
    k_right_invariant,
    k_structural,
    projected_covariant,
    structural_sign,
)
from .rot3d import (
    contact_curl,
    curl,
    curl_fd,
    curl_inverse_contact,
    divergence_fd,
    dmu_inner,
    rot_report,
)

# Every public name imported above, in import order; not the submodules.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]

__version__ = "0.1.0"
