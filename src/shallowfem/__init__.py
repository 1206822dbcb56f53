"""Mixed finite elements for the shallow atmosphere approximation.

The package builds extruded icosahedral meshes of a spherical annulus,
assembles a mixed H(div) x L^2 linear system with Coriolis coupling either on
the true (deep) annulus or, for the shallow-atmosphere metric, on the chart
S^2(a) x [0, H] in R^4, and verifies the discretisation against a
manufactured solution.  The discontinuous "hedgehog" mesh in R^3, which has
the chart's metric exactly, is exported and is the tests' oracle.
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
    JacobianSample,
    TangentFrame,
    phi_inverse,
    hedgehog_coordinates,
    manifold_coordinates,
    jacobian,
    jacobian4,
    pseudo_inverse_pseudo_det,
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
)
from .assembly import (
    ProblemConfig,
    LinearSystem,
    SolveResult,
    SolverError,
    assemble,
    apply_inner_bc,
    solve,
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
