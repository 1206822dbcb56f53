"""Build the spherical annulus and its hedgehog image, write both as VTK.

The annulus mesh is the usual extruded icosahedral grid: every vertex of the
base sphere is pushed out along its own radial direction, so neighbouring
prisms share facets exactly.  The hedgehog mesh re-extrudes each column of
prisms rigidly along one axis instead, the outward normal of the column's
chordal base triangle.  Columns then carry private copies of the shared
vertices, and the copies split apart with height.  The per-cell maps of this
gapped geometry are affine, and their metric equals that of the 4D chart
S^2(a) x [0, H] on which the shallow solver assembles.

Run from the repository root:

    python3 demos/export_meshes.py

then open mesh_out/annulus.vtk and mesh_out/hedgehog.vtk side by side in a
viewer to see the spikes.
"""

import numpy as np

from shallowfem import cli, geometry, mesh

refinement = 1
layers = 3
thickness = 0.5

base = mesh.build_icosahedral_sphere(refinement, radius=1.0)
m = mesh.extrude_radial(base, layers, thickness)
print(f"base sphere: {len(base.vertices)} vertices, {len(base.triangles)} triangles")
print(f"extruded: {m.n_cells} prisms in {len(base.triangles)} columns")

code = cli.main([
    "export-mesh",
    "--refinement", str(refinement),
    "--layers", str(layers),
    "--thickness", str(thickness),
    "--out-dir", "mesh_out",
])
assert code == 0

# How far do the duplicated vertices above the base sphere drift apart?
# The copies of one top vertex share its vertex id; group them by it.
ids = m.cell_vertices[:, 3:].ravel()
moved = geometry.hedgehog_coordinates(m)[:, 3:].reshape(-1, 3)
order = np.argsort(ids, kind="stable")
groups = np.split(moved[order], np.flatnonzero(np.diff(ids[order])) + 1)
gaps = np.array([np.linalg.norm(g - g.mean(axis=0), axis=1).max()
                 for g in groups if len(g) > 1])
print(f"duplicated prism-top vertices: {len(gaps)} groups")
print(f"gap radius: max {gaps.max():.4e}, mean {gaps.mean():.4e}")
print("(the gap scales linearly with height above the inner sphere)")
