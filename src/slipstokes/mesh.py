"""Triangular meshes of the unit square and of polygonal disks.

Boundary edges carry the geometric data the flow solvers need to impose
impermeability in a rotated frame: unit outward normal, unit tangent
(the normal rotated by +90 degrees, so tangents run counterclockwise
around the domain), a boundary marker and the signed curvature of the
underlying smooth boundary (0 for straight sides, 1/R on a circle).

The generators produce exactly two families:

* ``make_unit_square(n)``: structured triangulation of [0,1]^2 with
  alternating diagonals, ``(n+1)**2`` vertices and ``2*n**2`` triangles.
* ``make_disk(level, radius)``: a regular polygon with ``6 * 2**level``
  boundary vertices inscribed in the circle, triangulated by concentric
  rings around the center ("spiderweb" pattern).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ParseError

SQUARE = "square"
DISK = "disk"

# Square side markers, counterclockwise from the bottom side.
MARKER_BOTTOM = 1
MARKER_RIGHT = 2
MARKER_TOP = 3
MARKER_LEFT = 4
MARKER_CIRCLE = 1

FORMAT_HEADER = "navier-slip-mesh v1"
CORNER_ANGLE_TOL = 1e-6


def _rot90(v):
    """Rotate 2-vectors by +90 degrees: (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


class TriMesh:
    """Immutable straight-edge triangulation with oriented boundary data.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    boundary_edges : (nb, 2) int array
        Vertex index pairs (start, end) oriented so the domain lies to
        the left; together they form closed loops.
    boundary_markers : (nb,) int array
    boundary_normals : (nb, 2) float array
        Unit outward normals.
    boundary_kappa : (nb,) float array
        Curvature of the smooth boundary the edge approximates.
    domain_tag : str
        Either ``"square"`` or ``"disk"``.
    metadata : dict, optional
        Generator parameters (refinement level, radius, ...).

    Validation keeps its edge table (see ``_edge_table``): ``edges``,
    ``triangle_edges`` and the ``boundary_edge_ids`` of the declared edges.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_markers,
                 boundary_normals, boundary_kappa, domain_tag, metadata=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_markers = np.ascontiguousarray(boundary_markers, dtype=np.int64)
        self.boundary_normals = np.ascontiguousarray(boundary_normals, dtype=float)
        self.boundary_kappa = np.ascontiguousarray(boundary_kappa, dtype=float)
        self.domain_tag = domain_tag
        self.metadata = dict(metadata or {})
        self.edges, self.triangle_edges, self.boundary_edge_ids = _validate(self)
        self.boundary_tangents = _rot90(self.boundary_normals)
        for a in (self.vertices, self.triangles, self.boundary_edges,
                  self.boundary_markers, self.boundary_normals,
                  self.boundary_tangents, self.boundary_kappa, self.edges,
                  self.triangle_edges, self.boundary_edge_ids):
            a.flags.writeable = False

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self):
        return self.boundary_edges.shape[0]

    def triangle_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def boundary_lengths(self):
        d = (self.vertices[self.boundary_edges[:, 1]]
             - self.vertices[self.boundary_edges[:, 0]])
        return np.hypot(d[:, 0], d[:, 1])

    def mesh_size(self):
        """Longest edge over all triangles."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return float(np.max(np.hypot(d[:, 0], d[:, 1])))

    def min_angle(self):
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        ang = np.empty((self.num_triangles, 3))
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            dot = np.einsum("ij,ij->i", a, b)
            ang[:, k] = np.degrees(np.arctan2(np.abs(cross), dot))
        return float(ang.min())


def _validate(mesh):
    nv, nt, nb = (len(mesh.vertices), len(mesh.triangles),
                  len(mesh.boundary_edges))
    for name, shape in (("vertices", (nv, 2)), ("triangles", (nt, 3)),
                        ("boundary_edges", (nb, 2)),
                        ("boundary_markers", (nb,)),
                        ("boundary_normals", (nb, 2)),
                        ("boundary_kappa", (nb,))):
        got = getattr(mesh, name).shape
        if got != shape:
            raise InvalidArgument(f"{name} has shape {got}, expected {shape}")
    if nv < 3:
        raise InvalidArgument("mesh needs at least 3 vertices")
    if not np.isfinite(mesh.vertices).all():
        raise InvalidArgument("non-finite vertex coordinates")
    tris = mesh.triangles
    if tris.min(initial=0) < 0 or tris.max(initial=-1) >= nv:
        raise InvalidArgument("triangle vertex index out of range")
    areas = mesh.triangle_areas()
    if np.any(areas <= 0.0):
        raise InvalidArgument("triangle with non-positive area "
                              f"(min signed area {areas.min():.3e})")
    be = mesh.boundary_edges
    if be.min(initial=0) < 0 or be.max(initial=-1) >= nv:
        raise InvalidArgument("boundary edge vertex index out of range")
    if not (np.isfinite(mesh.boundary_normals).all()
            and np.isfinite(mesh.boundary_kappa).all()):
        raise InvalidArgument("non-finite boundary normals or curvature")
    norms = np.hypot(mesh.boundary_normals[:, 0], mesh.boundary_normals[:, 1])
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise InvalidArgument("boundary normals must be unit vectors")

    # Boundary edges must each be used by exactly one triangle, and the set
    # of one-triangle edges must be exactly the declared boundary.
    edges, tri_edges, uses, boundary_ids = _edge_table(tris, be, nv)
    twice = np.ones(len(be), dtype=bool)
    twice[np.unique(boundary_ids, return_index=True)[1]] = False
    bad = np.flatnonzero(twice | (uses[boundary_ids] != 1))
    if bad.size:
        key = tuple(sorted(int(v) for v in be[bad[0]]))
        if twice[bad[0]]:
            raise InvalidArgument(f"boundary edge {key} declared twice")
        raise InvalidArgument(f"boundary edge {key} not on exactly one triangle")
    if np.count_nonzero(uses == 1) != len(be):
        raise InvalidArgument("declared boundary does not match triangulation boundary")

    # Closed loops: every boundary vertex appears once as a start, once as an end.
    starts = np.sort(be[:, 0])
    ends = np.sort(be[:, 1])
    if not np.array_equal(starts, ends):
        raise InvalidArgument("boundary edges do not form closed loops")

    # Outward orientation: normal points away from the owning triangle and is
    # perpendicular to the edge.
    mids = 0.5 * (mesh.vertices[be[:, 0]] + mesh.vertices[be[:, 1]])
    d = mesh.vertices[be[:, 1]] - mesh.vertices[be[:, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    unit_d = d / lengths[:, None]
    # The stored normal may be the exact-circle normal rather than the chord
    # normal, so allow a mismatch of order (edge length / radius).
    slack = 1e-12 + mesh.boundary_kappa * lengths
    if np.any(np.abs(np.einsum("ij,ij->i", unit_d, mesh.boundary_normals)) > slack):
        raise InvalidArgument("boundary normal not perpendicular to its edge")
    # Exact on boundary edges, which have one triangle each.
    owner = np.empty(len(edges), dtype=np.int64)
    owner[tri_edges.ravel()] = np.repeat(np.arange(len(tris)), 3)
    owner_centroid = mesh.vertices[tris[owner[boundary_ids]]].mean(axis=1)
    outward = np.einsum("ij,ij->i", mids - owner_centroid, mesh.boundary_normals)
    if np.any(outward <= 0.0):
        raise InvalidArgument("boundary normal does not point outward")

    # Discrete divergence theorem on the constant field: sum of length-weighted
    # normals over a closed polygon vanishes.
    resultant = (lengths[:, None] * mesh.boundary_normals).sum(axis=0)
    if np.hypot(*resultant) > 1e-12 * lengths.sum():
        raise InvalidArgument("length-weighted boundary normals do not cancel")
    return edges, tri_edges, boundary_ids


def _edge_table(triangles, boundary_edges, nv):
    """Edges numbered by first use over triangles, then declared boundary.

    Triangle edges come in local order (a,b), (b,c), (c,a).  Returns the
    (ne, 2) pairs ``(lo, hi)`` of the triangles' edges, the (nt, 3) edge
    ids per triangle, the triangle count per id, and the (nb,) boundary
    ids, which are ``ne`` or more (count 0) for pairs on no triangle.
    """
    local = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2)
    pairs = np.sort(np.concatenate([local.reshape(-1, 2), boundary_edges]),
                    axis=1)
    _, first, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ids = rank[inverse]
    n_local = local.shape[0] * 3
    ne = np.count_nonzero(first < n_local)
    uses = np.bincount(ids[:n_local], minlength=len(order))
    return (pairs[first[order[:ne]]], ids[:n_local].reshape(-1, 3), uses,
            ids[n_local:])


def make_unit_square(n):
    """Structured triangulation of the unit square with n*n cells.

    Each cell is split along a diagonal whose direction alternates in a
    checkerboard pattern, which keeps the mesh symmetric under the square's
    symmetries.  Returns ``(n+1)**2`` vertices, ``2*n**2`` triangles and
    ``4*n`` boundary edges with side markers 1..4 (bottom, right, top, left).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgument(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    axis = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    # Cell (i, j), row by row, has corners a, b, c, d counterclockwise.
    j, i = np.divmod(np.arange(n * n), n)
    a = vid(i, j)
    b, c, d = a + 1, a + n + 2, a + n + 1
    even = ((i + j) % 2 == 0)[:, None]
    triangles = np.stack([
        np.where(even, np.column_stack([a, b, c]), np.column_stack([a, b, d])),
        np.where(even, np.column_stack([a, c, d]), np.column_stack([b, c, d])),
    ], axis=1).reshape(-1, 3)

    k = np.arange(n)
    edges = np.concatenate([
        np.column_stack([vid(k, 0), vid(k + 1, 0)]),            # bottom, left to right
        np.column_stack([vid(n, k), vid(n, k + 1)]),            # right, upward
        np.column_stack([vid(n - k, n), vid(n - k - 1, n)]),    # top, right to left
        np.column_stack([vid(0, n - k), vid(0, n - k - 1)]),    # left, downward
    ])
    markers = np.repeat([MARKER_BOTTOM, MARKER_RIGHT, MARKER_TOP, MARKER_LEFT], n)
    normals = np.repeat([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], n,
                        axis=0)
    return TriMesh(vertices, triangles, edges, markers, normals,
                   np.zeros(len(edges)), SQUARE, metadata={"n": n})


def make_disk(level, radius=1.0):
    """Polygonal disk: regular ``6 * 2**level``-gon inscribed in a circle.

    The interior is triangulated by concentric rings; ring ``l`` of
    ``nr = 2**level`` holds ``6*l`` uniformly spaced vertices at radius
    ``l * radius / nr``, and consecutive rings are stitched by a zipper
    walk that merges the two uniform angular sequences.  Boundary vertices
    sit exactly on the circle; boundary edges carry curvature ``1/radius``
    and the exact circle normal at the chord midpoint direction.
    """
    if not isinstance(level, (int, np.integer)) or level < 0:
        raise InvalidArgument(f"refinement level must be a non-negative integer, got {level!r}")
    if not (np.isfinite(radius) and radius > 0.0):
        raise InvalidArgument(f"radius must be positive, got {radius!r}")
    level = int(level)
    radius = float(radius)
    nr = 2 ** level

    ring_start = [0]
    coords = [(0.0, 0.0)]
    for ell in range(1, nr + 1):
        ring_start.append(len(coords))
        m = 6 * ell
        theta = 2.0 * np.pi * np.arange(m) / m
        r = radius * ell / nr
        coords.extend(zip(r * np.cos(theta), r * np.sin(theta)))
    vertices = np.array(coords)

    def ring_ids(ell):
        if ell == 0:
            return np.array([0])
        return ring_start[ell] + np.arange(6 * ell)

    triangles = []
    inner = ring_ids(0)
    for ell in range(1, nr + 1):
        outer = ring_ids(ell)
        m1, m2 = len(inner), len(outer)
        if ell == 1:
            for j in range(m2):
                triangles.append((inner[0], outer[j], outer[(j + 1) % m2]))
        else:
            i = j = 0
            while i < m1 or j < m2:
                # Advance whichever ring's next vertex comes first in angle;
                # integer cross-multiplication keeps the comparison exact.
                if j == m2 or (i < m1 and (i + 1) * m2 <= (j + 1) * m1):
                    triangles.append((inner[i % m1], outer[j % m2],
                                      inner[(i + 1) % m1]))
                    i += 1
                else:
                    triangles.append((inner[i % m1], outer[j % m2],
                                      outer[(j + 1) % m2]))
                    j += 1
        inner = outer

    m = 6 * nr
    rim = ring_ids(nr)
    edges = np.column_stack([rim, np.roll(rim, -1)])
    mids = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    normals = mids / np.hypot(mids[:, 0], mids[:, 1])[:, None]
    return TriMesh(vertices, np.array(triangles), edges,
                   np.full(m, MARKER_CIRCLE), normals,
                   np.full(m, 1.0 / radius), DISK,
                   metadata={"level": level, "radius": radius})


def make_mesh(domain, level, radius=1.0):
    """The disk of ``level`` and ``radius``, else the square of ``level``."""
    if domain == DISK:
        return make_disk(level, radius)
    return make_unit_square(level)


@dataclass(frozen=True)
class BoundaryFrameTable:
    """Per-boundary-vertex frames averaged from the adjacent edges.

    Attributes
    ----------
    vertex_ids : (nb,) int array
        Boundary vertex indices, increasing.
    normals, tangents : (nb, 2) float arrays
        Averaged unit outward normal and its +90 degree rotation.
    corner : (nb,) bool array
        True where two straight edges meet at an angle above tolerance.
        Corner vertices must be fully clamped by the constraint builder;
        vertices on curvature-tagged (smooth) boundary are never corners.

    Midpoint nodes of boundary edges take the edge's own exact frame and
    are never corners; those frames live on the mesh itself.
    """

    vertex_ids: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray
    corner: np.ndarray


def boundary_frames(mesh):
    """Build averaged (normal, tangent) frames at boundary vertices.

    A vertex is flagged as a corner when both adjacent edges are straight
    (zero curvature) and their normals differ by more than ``CORNER_ANGLE_TOL``
    radians.  On curved boundaries the per-edge turn angle is geometry,
    not a corner, so curvature-tagged edges never produce corner flags.
    """
    be = mesh.boundary_edges[::-1]
    # The last edge out of and into each vertex; one each on a simple loop.
    vertex_ids, e_out = np.unique(be[:, 0], return_index=True)
    e_in = np.unique(be[:, 1], return_index=True)[1]
    e_out, e_in = len(be) - 1 - e_out, len(be) - 1 - e_in
    n1 = mesh.boundary_normals[e_in]
    n2 = mesh.boundary_normals[e_out]
    avg = n1 + n2
    normals = avg / np.hypot(avg[:, 0], avg[:, 1])[:, None]
    smooth = (mesh.boundary_kappa[e_in] > 0.0) & (mesh.boundary_kappa[e_out] > 0.0)
    angle = np.arctan2(np.abs(n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]),
                       n1[:, 0] * n2[:, 0] + n1[:, 1] * n2[:, 1])
    corner = ~smooth & (angle > CORNER_ANGLE_TOL)
    return BoundaryFrameTable(vertex_ids, normals, _rot90(normals), corner)


def write_mesh(path, mesh):
    """Write a mesh in the plain-text ``navier-slip-mesh v1`` format.

    The writer is canonical: 17 significant digits for floats, one record
    per line, so reading a written file and writing it again reproduces
    the bytes exactly.
    """
    lines = [FORMAT_HEADER, f"domain {mesh.domain_tag}",
             f"vertices {mesh.num_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"triangles {mesh.num_triangles}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    lines.append(f"boundary {mesh.num_boundary_edges}")
    for k in range(mesh.num_boundary_edges):
        a, b = mesh.boundary_edges[k]
        nx, ny = mesh.boundary_normals[k]
        lines.append(f"{a} {b} {mesh.boundary_markers[k]} "
                     f"{nx:.17g} {ny:.17g} {mesh.boundary_kappa[k]:.17g}")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(data)


def read_mesh(path):
    """Read a ``navier-slip-mesh v1`` file; raises ParseError with a line number."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte {raw[exc.start]:#04x}",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None
    cursor = 0

    def take():
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError("unexpected end of file", line=len(lines) + 1)
        cursor += 1
        return lines[cursor - 1], cursor

    header, ln = take()
    if header.strip() != FORMAT_HEADER:
        raise ParseError(f"bad header {header!r}, expected {FORMAT_HEADER!r}", line=ln)
    domain_line, ln = take()
    parts = domain_line.split()
    if len(parts) != 2 or parts[0] != "domain" or parts[1] not in (SQUARE, DISK):
        raise ParseError(f"bad domain line {domain_line!r}", line=ln)
    domain_tag = parts[1]

    def section(name, fields, kinds):
        head, ln = take()
        parts = head.split()
        if len(parts) != 2 or parts[0] != name:
            raise ParseError(f"expected '{name} <count>', got {head!r}", line=ln)
        try:
            count = int(parts[1])
        except ValueError:
            raise ParseError(f"bad count {parts[1]!r}", line=ln) from None
        if count < 0:
            raise ParseError(f"negative count {count}", line=ln)
        rows = []
        for _ in range(count):
            text, ln = take()
            items = text.split()
            if len(items) != fields:
                raise ParseError(f"expected {fields} fields, got {len(items)}", line=ln)
            try:
                rows.append([kind(tok) for kind, tok in zip(kinds, items)])
            except (ValueError, OverflowError):     # int64 overflow too
                raise ParseError(f"bad value in {text!r}", line=ln) from None
        return rows

    verts = section("vertices", 2, (float, float))
    if not verts:
        raise ParseError("empty vertex section", line=cursor)
    tris = section("triangles", 3, (np.int64,) * 3)
    bnd = section("boundary", 6, (np.int64,) * 3 + (float,) * 3)
    if cursor != len(lines) and any(s.strip() for s in lines[cursor:]):
        raise ParseError("trailing content after boundary section", line=cursor + 1)
    ints = np.array([row[:3] for row in bnd], dtype=np.int64).reshape(-1, 3)
    reals = np.array([row[3:] for row in bnd], dtype=float).reshape(-1, 3)
    try:
        return TriMesh(np.array(verts, dtype=float).reshape(-1, 2),
                       np.array(tris, dtype=np.int64).reshape(-1, 3),
                       ints[:, 0:2], ints[:, 2], reals[:, 0:2], reals[:, 2],
                       domain_tag)
    except InvalidArgument as exc:
        raise ParseError(f"invalid mesh: {exc}") from exc
