"""Mixed finite elements for the shallow atmosphere approximation.

The package builds extruded icosahedral meshes of a spherical annulus,
equips them with either the true (deep) coordinate field or the discontinuous
"hedgehog" field that encodes the shallow-atmosphere metric, assembles a mixed
H(div) x L^2 linear system with Coriolis coupling, and verifies the
discretisation against a manufactured solution.
"""

from .mesh import (
    InvalidTopologyError,
    BaseSphereMesh,
    ExtrudedMesh,
    FacetSet,
    build_icosahedral_sphere,
    base_mesh_from_triangles,
    extrude_radial,
    classify_facets,
)
from .geometry import (
    DegenerateMapError,
    CoordinateField,
    JacobianSample,
    TangentFrame,
    phi,
    phi_inverse,
    annulus_coordinates,
    hedgehog_coordinates,
    manifold_coordinates,
    jacobian,
    jacobian4,
    pseudo_inverse_pseudo_det,
    tangent_frame,
)
from .fem import (
    QuadratureRule,
    FiniteElement,
    FunctionSpace,
    Field,
    quadrature_prism,
    make_element,
    tabulate,
    build_dof_map,
    interpolate_hdiv,
)
from .assembly import (
    ProblemConfig,
    LinearSystem,
    SolveResult,
    SolverError,
    assemble,
    apply_inner_bc,
    solve,
    weak_residual,
)
from .mms import (
    ShallowOperators,
    ManufacturedCase,
    ForcingReport,
    ConvergenceTable,
    derive_forcing,
    l2_errors,
    convergence_study,
)

__version__ = "0.1.0"
