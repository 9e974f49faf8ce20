"""Tests for mesh generators, boundary tagging and persistence."""

import hashlib

import numpy as np
import pytest

from repro.mesh import (
    TAG_FARFIELD,
    TAG_SYMMETRY,
    TAG_WALL,
    box_mesh,
    dataset_mesh,
    load_mesh,
    mesh_c_prime,
    mesh_d_prime,
    save_mesh,
    validate_mesh,
    wing_mesh,
)
from repro.mesh.generator import boundary_faces_from_tets, structured_to_tets
from repro.ordering import bandwidth, rcm_relabel


class TestStructuredToTets:
    def test_single_hex_six_tets(self):
        tets = structured_to_tets((2, 2, 2))
        assert tets.shape == (6, 4)

    def test_kuhn_volumes_fill_cube(self):
        from repro.mesh.core import tet_volumes

        xs = np.array([0.0, 1.0])
        gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij")
        coords = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        tets = structured_to_tets((2, 2, 2))
        vols = np.abs(tet_volumes(coords, tets))
        assert vols.sum() == pytest.approx(1.0)
        # Kuhn simplices of the unit cube all have volume 1/6.
        np.testing.assert_allclose(vols, 1.0 / 6.0)

    def test_periodic_wraps(self):
        tets = structured_to_tets((4, 2, 2), periodic_i=True)
        # 4 cells in i when periodic (vs 3 when not)
        assert tets.shape[0] == 4 * 1 * 1 * 6
        assert tets.max() < 4 * 2 * 2

    def test_conforming_faces(self):
        # Every interior face must be shared by exactly two tets — the Kuhn
        # split must agree on the diagonals of shared hex faces.
        tets = structured_to_tets((3, 3, 3))
        faces = boundary_faces_from_tets(tets, 27)
        # A 2x2x2-cell cube has 2 cells x 6 sides x ... = 48 boundary tris
        assert faces.shape[0] == 6 * 4 * 2


class TestBoxMesh:
    def test_counts(self):
        m = box_mesh((3, 3, 3))
        assert m.n_vertices == 27
        assert m.n_tets == 8 * 6

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            box_mesh((1, 3, 3))

    def test_jitter_deterministic(self):
        a = box_mesh((4, 4, 4), jitter=0.1, seed=42)
        b = box_mesh((4, 4, 4), jitter=0.1, seed=42)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_jitter_moves_only_interior(self):
        a = box_mesh((4, 4, 4), jitter=0.0)
        b = box_mesh((4, 4, 4), jitter=0.1, seed=1)
        on_boundary = np.zeros(a.n_vertices, dtype=bool)
        on_boundary[a.bfaces.ravel()] = True
        np.testing.assert_array_equal(a.coords[on_boundary], b.coords[on_boundary])
        assert not np.allclose(a.coords[~on_boundary], b.coords[~on_boundary])


class TestWingMesh:
    def test_boundary_tags_cover(self):
        m = wing_mesh(n_around=20, n_radial=6, n_span=4)
        tags = set(np.unique(m.btags))
        assert tags == {TAG_WALL, TAG_FARFIELD, TAG_SYMMETRY}

    def test_wall_faces_near_surface(self):
        m = wing_mesh(n_around=24, n_radial=8, n_span=5, farfield_radius=6.0)
        wall = m.bfaces[m.btags == TAG_WALL]
        far = m.bfaces[m.btags == TAG_FARFIELD]
        r_wall = np.linalg.norm(m.coords[wall.ravel()][:, :2], axis=1).max()
        r_far = np.linalg.norm(m.coords[far.ravel()][:, :2], axis=1).min()
        assert r_wall < r_far

    def test_wall_normals_point_out_of_fluid(self):
        # Outward from the fluid = into the wing: for the elliptic section
        # the wall normal at a surface point should oppose the radial
        # direction from the local section center.
        m = wing_mesh(n_around=24, n_radial=8, n_span=5, jitter=0.0)
        wall_idx = np.where(m.btags == TAG_WALL)[0]
        n = m.bface_normals[wall_idx]
        centroid = m.coords[m.bfaces[wall_idx]].mean(axis=1)
        # section center at this z: x = sweep*z + 0.5*c(z); use y-component
        # sign as the robust check (upper surface -> normal points down into
        # the wing, i.e. n_y < 0 where y > 0).
        upper = centroid[:, 1] > 1e-3
        lower = centroid[:, 1] < -1e-3
        assert np.all(n[upper, 1] < 0)
        assert np.all(n[lower, 1] > 0)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            wing_mesh(n_around=4)


class TestDatasets:
    def test_mesh_c_prime_shape(self):
        m = mesh_c_prime(scale=0.1)
        r = validate_mesh(m)
        assert r.ok
        # edge/vertex ratio like the paper's meshes (~6.7)
        assert 5.0 < m.n_edges / m.n_vertices < 8.0

    def test_mesh_d_prime_larger(self):
        c = mesh_c_prime(scale=0.1)
        d = mesh_d_prime(scale=0.1)
        assert d.n_vertices > c.n_vertices

    def test_scale_monotone(self):
        small = mesh_c_prime(scale=0.05)
        big = mesh_c_prime(scale=0.2)
        assert big.n_vertices > small.n_vertices


def assert_same_mesh(a, b):
    for name in ("coords", "tets", "bfaces", "btags", "edges"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)


#: sha256 of tets + bfaces + btags (int64 bytes) of Mesh-C' x0.12 seed 7 in
#: the generator's frontal order, as every release before RCM became the
#: default built it
NATURAL_C12_TOPOLOGY = (
    "19a0bc72c002304f2699511327cda216185b236efae4b048d6ac942a4a193676"
)


class TestOrdering:
    """Generated meshes are numbered by RCM unless asked for their natural
    (frontal) order, and the RCM pass runs exactly once."""

    @pytest.mark.parametrize("make", [mesh_c_prime, mesh_d_prime])
    def test_default_is_rcm_of_the_natural_mesh(self, make):
        natural = make(scale=0.03, ordering="natural")
        assert_same_mesh(make(scale=0.03), rcm_relabel(natural))

    def test_natural_is_the_frontal_order(self):
        m = mesh_c_prime(scale=0.12, seed=7, ordering="natural")
        digest = hashlib.sha256()
        for a in (m.tets, m.bfaces, m.btags):
            digest.update(a.tobytes())
        assert digest.hexdigest() == NATURAL_C12_TOPOLOGY
        # coordinates come from NumPy's trig, whose last bit may move with
        # the host's SIMD: pin an index-weighted sum to a tolerance instead
        np.testing.assert_allclose(
            np.arange(1, m.n_vertices + 1) @ m.coords,
            [3479206.9739108365, -9677.011555490146, 2831296.899904035],
            rtol=1e-9,
        )

    def test_edge_bandwidth_halves(self):
        assert bandwidth(mesh_c_prime(scale=0.12).edges) == 251
        assert bandwidth(mesh_c_prime(scale=0.12, ordering="natural").edges) == 511

    @pytest.mark.parametrize("ordering", ["natural", "rcm"])
    @pytest.mark.parametrize("dataset", ["mesh-c", "mesh-d", "wing"])
    def test_dataset_mesh_numbers_once(self, dataset, ordering):
        got = dataset_mesh(dataset, scale=0.03, seed=5, ordering=ordering)
        make = {"mesh-c": mesh_c_prime, "mesh-d": mesh_d_prime}.get(dataset)
        if make is not None:
            assert_same_mesh(got, make(scale=0.03, seed=5, ordering=ordering))
        if ordering == "rcm":
            natural = dataset_mesh(dataset, scale=0.03, seed=5, ordering="natural")
            assert_same_mesh(got, rcm_relabel(natural))
            # RCM is not idempotent: a second pass would renumber again
            assert not np.array_equal(rcm_relabel(got).tets, got.tets)

    def test_dataset_mesh_defaults_to_rcm(self):
        assert_same_mesh(
            dataset_mesh("mesh-c", scale=0.03),
            dataset_mesh("mesh-c", scale=0.03, ordering="rcm"),
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda o: mesh_c_prime(scale=0.02, ordering=o),
            lambda o: mesh_d_prime(scale=0.02, ordering=o),
            lambda o: dataset_mesh("wing", scale=0.02, ordering=o),
        ],
        ids=["mesh_c_prime", "mesh_d_prime", "dataset_mesh"],
    )
    def test_unknown_ordering_raises(self, make):
        with pytest.raises(ValueError, match="unknown ordering"):
            make("frontal")


class TestIO:
    def test_roundtrip(self, tmp_path):
        m = wing_mesh(n_around=16, n_radial=5, n_span=4)
        p = tmp_path / "wing.npz"
        save_mesh(m, p)
        r = load_mesh(p)
        np.testing.assert_array_equal(r.tets, m.tets)
        np.testing.assert_allclose(r.coords, m.coords)
        np.testing.assert_array_equal(r.btags, m.btags)
        assert r.name == m.name

    def test_version_check(self, tmp_path):
        m = box_mesh((3, 3, 3))
        p = tmp_path / "m.npz"
        save_mesh(m, p)
        data = dict(np.load(p, allow_pickle=False))
        data["version"] = np.int64(99)
        np.savez(p, **data)
        with pytest.raises(ValueError):
            load_mesh(p)
