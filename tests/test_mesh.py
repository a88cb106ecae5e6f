import re

import numpy as np
import pytest

from slipstokes import (TriMesh, boundary_frames, make_disk, make_unit_square,
                        read_mesh, write_mesh)
from slipstokes.errors import InvalidArgument, ParseError
from slipstokes.mesh import FORMAT_HEADER, SQUARE, _edge_table


def polygon_area(m_edges, radius):
    return 0.5 * m_edges * radius * radius * np.sin(2.0 * np.pi / m_edges)


class TestSquare:
    def test_counts(self):
        for n in (1, 3, 8):
            m = make_unit_square(n)
            assert len(m.vertices) == (n + 1) ** 2
            assert len(m.triangles) == 2 * n * n
            assert len(m.boundary_edges) == 4 * n

    def test_area_and_perimeter(self):
        m = make_unit_square(5)
        assert m.triangle_areas().sum() == pytest.approx(1.0, abs=1e-15)
        assert m.boundary_lengths().sum() == pytest.approx(4.0, abs=1e-14)

    def test_marker_sides(self):
        m = make_unit_square(4)
        mids = m.vertices[m.boundary_edges].mean(axis=1)
        for marker, (axis, value) in ((1, (1, 0.0)), (2, (0, 1.0)),
                                      (3, (1, 1.0)), (4, (0, 0.0))):
            sel = m.boundary_markers == marker
            assert sel.any()
            assert np.allclose(mids[sel][:, axis], value, atol=1e-15)

    def test_normals_outward_unit(self):
        m = make_unit_square(4)
        norms = np.linalg.norm(m.boundary_normals, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-14)
        # outward: midpoint + eps*normal leaves the unit square
        probe = m.vertices[m.boundary_edges].mean(axis=1) \
            + 1e-6 * m.boundary_normals
        outside = (probe < 0.0) | (probe > 1.0)
        assert outside.any(axis=1).all()

    def test_flat_boundary_has_zero_curvature(self):
        m = make_unit_square(3)
        assert np.all(m.boundary_kappa == 0.0)

    def test_min_angle(self):
        assert make_unit_square(6).min_angle() == pytest.approx(45.0, abs=1e-10)

    def test_invalid_subdivisions(self):
        with pytest.raises(InvalidArgument):
            make_unit_square(0)


class TestDisk:
    def test_counts(self):
        for level in (0, 1, 2, 3):
            nr = 2 ** level
            m = make_disk(level)
            assert len(m.vertices) == 1 + 3 * nr * (nr + 1)
            assert len(m.triangles) == 6 * nr * nr
            assert len(m.boundary_edges) == 6 * nr

    def test_area_matches_inscribed_polygon(self):
        for level, radius in ((1, 1.0), (2, 2.0)):
            m = make_disk(level, radius=radius)
            exact = polygon_area(len(m.boundary_edges), radius)
            assert m.triangle_areas().sum() == pytest.approx(exact, rel=1e-14)

    def test_boundary_vertices_on_circle(self):
        m = make_disk(2, radius=1.5)
        ring = np.unique(m.boundary_edges)
        r = np.linalg.norm(m.vertices[ring], axis=1)
        assert np.allclose(r, 1.5, atol=1e-14)

    def test_normals_radial(self):
        m = make_disk(2)
        mids = m.vertices[m.boundary_edges].mean(axis=1)
        radial = mids / np.linalg.norm(mids, axis=1, keepdims=True)
        assert np.abs(m.boundary_normals - radial).max() < 1e-14

    def test_curvature_is_inverse_radius(self):
        m = make_disk(1, radius=2.0)
        assert np.allclose(m.boundary_kappa, 0.5, atol=1e-15)

    def test_min_angle_bounded(self):
        for level in (1, 2, 3):
            assert make_disk(level).min_angle() > 30.0

    def test_invalid_args(self):
        with pytest.raises(InvalidArgument):
            make_disk(-1)
        with pytest.raises(InvalidArgument):
            make_disk(1, radius=0.0)


class TestFrames:
    def test_square_corners(self):
        m = make_unit_square(4)
        ft = boundary_frames(m)
        assert ft.corner.sum() == 4
        corners = m.vertices[ft.vertex_ids[ft.corner]]
        expect = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
        assert {tuple(v) for v in corners} == expect

    def test_square_side_frames_axis_aligned(self):
        m = make_unit_square(4)
        ft = boundary_frames(m)
        flat = ft.normals[~ft.corner]
        # every non-corner normal is +-e1 or +-e2
        assert np.allclose(np.abs(flat).max(axis=1), 1.0, atol=1e-14)
        assert np.allclose(np.abs(flat).min(axis=1), 0.0, atol=1e-14)

    def test_disk_frames_exactly_radial(self):
        m = make_disk(3)
        ft = boundary_frames(m)
        assert not ft.corner.any()
        v = m.vertices[ft.vertex_ids]
        radial = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.abs(ft.normals - radial).max() < 1e-14

    def test_tangent_perpendicular(self):
        for m in (make_unit_square(3), make_disk(2)):
            ft = boundary_frames(m)
            dots = (ft.normals * ft.tangents).sum(axis=1)
            assert np.abs(dots).max() < 1e-15



def edge_oracle(mesh):
    """The dict walk the vectorized edge table replaced, kept as its oracle."""
    edge_of, edges, uses = {}, [], []
    tri_edges = np.empty((mesh.num_triangles, 3), dtype=np.int64)
    for ti, (a, b, c) in enumerate(mesh.triangles):
        for k, (i, j) in enumerate(((a, b), (b, c), (c, a))):
            key = (min(i, j), max(i, j))
            if key not in edge_of:
                edge_of[key] = len(edges)
                edges.append(key)
                uses.append(0)
            uses[edge_of[key]] += 1
            tri_edges[ti, k] = edge_of[key]
    boundary = [edge_of[(min(a, b), max(a, b))] for a, b in mesh.boundary_edges]
    return np.array(edges, dtype=np.int64), tri_edges, np.array(uses), boundary


class TestEdgeTable:
    def check(self, mesh):
        edges, tri_edges, uses, boundary = edge_oracle(mesh)
        assert mesh.edges.dtype == mesh.triangle_edges.dtype == np.int64
        assert np.array_equal(mesh.edges, edges)
        assert np.array_equal(mesh.triangle_edges, tri_edges)
        assert np.array_equal(mesh.boundary_edge_ids, boundary)
        table = _edge_table(mesh.triangles, mesh.boundary_edges,
                            mesh.num_vertices)
        assert np.array_equal(table[2], uses)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_oracle_on_squares(self, n):
        self.check(make_unit_square(n))

    @pytest.mark.parametrize("level", range(4))
    def test_matches_oracle_on_disks(self, level):
        self.check(make_disk(level))

    def test_matches_oracle_after_read_mesh(self, tmp_path):
        for k, mesh in enumerate((make_unit_square(3), make_disk(2, 1.5))):
            path = tmp_path / f"{k}.msh"
            write_mesh(path, mesh)
            again = read_mesh(path)
            self.check(again)
            assert np.array_equal(again.edges, mesh.edges)

    def test_table_is_frozen(self):
        m = make_unit_square(2)
        for array in (m.edges, m.triangle_edges, m.boundary_edge_ids):
            with pytest.raises(ValueError):
                array[0] = 0


class TestFileFormat:
    def test_round_trip_bitwise(self, tmp_path):
        for mesh in (make_unit_square(5), make_disk(2, radius=2.5)):
            p1 = tmp_path / "a.msh"
            p2 = tmp_path / "b.msh"
            write_mesh(p1, mesh)
            again = read_mesh(p1)
            write_mesh(p2, again)
            assert p1.read_bytes() == p2.read_bytes()
            assert np.array_equal(mesh.vertices, again.vertices)
            assert np.array_equal(mesh.triangles, again.triangles)
            assert np.array_equal(mesh.boundary_edges, again.boundary_edges)
            assert np.array_equal(mesh.boundary_kappa, again.boundary_kappa)
            assert mesh.domain_tag == again.domain_tag

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.msh"
        p.write_text("navier-slip-mesh v1\nvertices 2\n0 0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_mesh(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.msh"
        p.write_text("some other format\n")
        with pytest.raises(ParseError, match="line 1"):
            read_mesh(p)

    def test_truncated_file(self, tmp_path):
        good = tmp_path / "good.msh"
        write_mesh(good, make_unit_square(2))
        text = good.read_text()
        bad = tmp_path / "trunc.msh"
        bad.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            read_mesh(bad)

    def test_non_ascii_byte(self, tmp_path):
        good = tmp_path / "good.msh"
        write_mesh(good, make_unit_square(2))
        bad = tmp_path / "bad.msh"
        bad.write_bytes(good.read_bytes().replace(b"0.5 0\n", b"0.5 \xe90\n"))
        with pytest.raises(ParseError, match="line 5: non-ASCII byte 0xe9"):
            read_mesh(bad)

    def test_index_beyond_int64(self, tmp_path):
        good = tmp_path / "good.msh"
        write_mesh(good, make_unit_square(2))
        bad = tmp_path / "bad.msh"
        bad.write_text(good.read_text().replace(
            "\n0 1 4\n", "\n99999999999999999999 1 4\n"))
        with pytest.raises(ParseError, match="line 14: bad value"):
            read_mesh(bad)

    def test_trailing_garbage(self, tmp_path):
        good = tmp_path / "good.msh"
        write_mesh(good, make_unit_square(2))
        bad = tmp_path / "trail.msh"
        bad.write_text(good.read_text() + "extra line\n")
        with pytest.raises(ParseError):
            read_mesh(bad)


def _square_parts(n=2):
    m = make_unit_square(n)
    return {"vertices": m.vertices.copy(), "triangles": m.triangles.copy(),
            "boundary_edges": m.boundary_edges.copy(),
            "boundary_markers": m.boundary_markers.copy(),
            "boundary_normals": m.boundary_normals.copy(),
            "boundary_kappa": m.boundary_kappa.copy(), "domain_tag": SQUARE}


def _declared_twice(parts):
    parts["boundary_edges"][1] = parts["boundary_edges"][0]


def _missing_edge(parts):
    for key in ("boundary_edges", "boundary_markers", "boundary_normals",
                "boundary_kappa"):
        parts[key] = parts[key][1:]


def _edge_of_two_triangles(parts):
    parts["boundary_edges"][0] = (0, 4)       # the first cell's diagonal


def _edge_of_no_triangle(parts):
    parts["boundary_edges"][0] = (0, 8)       # corner to corner


def _open_loop(parts):
    parts["boundary_edges"][0] = parts["boundary_edges"][0][::-1]


def _inward_normal(parts):
    parts["boundary_normals"][0] *= -1.0


def _nan_normal(parts):
    parts["boundary_normals"][0] = np.nan


def _nan_kappa(parts):
    parts["boundary_kappa"][0] = np.nan


REFUSALS = [
    (_declared_twice, r"^boundary edge \(0, 1\) declared twice$"),
    (_missing_edge, r"^declared boundary does not match triangulation "
                    r"boundary$"),
    (_edge_of_two_triangles,
     r"^boundary edge \(0, 4\) not on exactly one triangle$"),
    (_edge_of_no_triangle,
     r"^boundary edge \(0, 8\) not on exactly one triangle$"),
    (_open_loop, r"^boundary edges do not form closed loops$"),
    (_inward_normal, r"^boundary normal does not point outward$"),
    (_nan_normal, r"^non-finite boundary normals or curvature$"),
    (_nan_kappa, r"^non-finite boundary normals or curvature$"),
]


def _write_raw(path, parts):
    """``write_mesh`` for arrays that make no valid mesh."""
    lines = [FORMAT_HEADER, f"domain {parts['domain_tag']}",
             f"vertices {len(parts['vertices'])}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in parts["vertices"]]
    lines.append(f"triangles {len(parts['triangles'])}")
    lines += [f"{a} {b} {c}" for a, b, c in parts["triangles"]]
    lines.append(f"boundary {len(parts['boundary_edges'])}")
    for (a, b), mk, (nx, ny), kappa in zip(
            parts["boundary_edges"], parts["boundary_markers"],
            parts["boundary_normals"], parts["boundary_kappa"]):
        lines.append(f"{a} {b} {mk} {nx:.17g} {ny:.17g} {kappa:.17g}")
    path.write_text("\n".join(lines) + "\n")


SHAPE_BREAKS = {
    "vertices": lambda a: a.ravel(),
    "triangles": lambda a: np.hstack([a, a[:, :1]]),
    "boundary_edges": lambda a: np.hstack([a, a[:, :1]]),
    "boundary_markers": lambda a: a[:-1],
    "boundary_normals": lambda a: a[:-1],
    "boundary_kappa": lambda a: a[:-1],
}


class TestValidation:
    @pytest.mark.parametrize("name", list(SHAPE_BREAKS))
    def test_wrong_shape_refused(self, name):
        # Checked before any array is indexed, so no IndexError or numpy
        # broadcasting error escapes, and a short array is never accepted.
        parts = _square_parts()
        parts[name] = SHAPE_BREAKS[name](parts[name])
        shape = re.escape(str(parts[name].shape))
        with pytest.raises(InvalidArgument,
                           match=rf"^{name} has shape {shape}, expected"):
            TriMesh(**parts)

    @pytest.mark.parametrize("breaks, message", REFUSALS,
                             ids=[b.__name__[1:] for b, _ in REFUSALS])
    def test_refusal_messages(self, tmp_path, breaks, message):
        parts = _square_parts()
        breaks(parts)
        with pytest.raises(InvalidArgument, match=message):
            TriMesh(**parts)
        path = tmp_path / "bad.msh"
        _write_raw(path, parts)
        with pytest.raises(ParseError, match="invalid mesh: "
                           + message.lstrip("^")):
            read_mesh(path)

    def test_raw_writer_matches_write_mesh(self, tmp_path):
        path = tmp_path / "good.msh"
        _write_raw(path, _square_parts())
        write_mesh(tmp_path / "ref.msh", make_unit_square(2))
        assert path.read_bytes() == (tmp_path / "ref.msh").read_bytes()

    def test_rejects_inverted_triangle(self):
        m = make_unit_square(2)
        tris = m.triangles.copy()
        tris[0] = tris[0][::-1]
        with pytest.raises(InvalidArgument):
            TriMesh(vertices=m.vertices.copy(), triangles=tris,
                    boundary_edges=m.boundary_edges.copy(),
                    boundary_markers=m.boundary_markers.copy(),
                    boundary_normals=m.boundary_normals.copy(),
                    boundary_kappa=m.boundary_kappa.copy(),
                    domain_tag=m.domain_tag)

    def test_rejects_wrong_boundary(self):
        m = make_unit_square(2)
        edges = m.boundary_edges.copy()
        edges[0] = (0, 4)    # interior diagonal is not a boundary edge
        with pytest.raises(InvalidArgument):
            TriMesh(vertices=m.vertices.copy(), triangles=m.triangles.copy(),
                    boundary_edges=edges,
                    boundary_markers=m.boundary_markers.copy(),
                    boundary_normals=m.boundary_normals.copy(),
                    boundary_kappa=m.boundary_kappa.copy(),
                    domain_tag=m.domain_tag)

    def test_arrays_frozen(self):
        m = make_unit_square(2)
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 7.0
