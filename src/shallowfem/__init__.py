"""Mixed finite elements for the shallow atmosphere approximation.

The package builds extruded icosahedral meshes of a spherical annulus,
assembles a mixed H(div) x L^2 linear system with Coriolis coupling either on
the true (deep) annulus or, for the shallow-atmosphere metric, on the chart
S^2(a) x [0, H] in R^4, and verifies the discretisation against a
manufactured solution.  The discontinuous "hedgehog" mesh in R^3, which has
the chart's metric exactly, is exported and is the tests' oracle.  The API
is each submodule's ``__all__``, imported as ``from shallowfem import mms``.
"""

__version__ = "0.1.0"
