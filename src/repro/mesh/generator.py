"""Synthetic unstructured tetrahedral mesh generators.

The paper evaluates on NASA's ONERA M6 wing meshes (Mesh-C: 3.58e5 vertices /
2.40e6 edges, Mesh-D: 2.76e6 / 1.89e7) which are not publicly distributable.
This module builds structural analogues from scratch:

* :func:`wing_mesh` — an O-grid wrapped around a swept, tapered wing with an
  elliptic section, extruded spanwise between two symmetry planes, split into
  tetrahedra with the Kuhn subdivision and jittered so vertex degrees and
  orderings behave like output of an advancing-front generator.  Boundary
  triangles carry WALL / FARFIELD / SYMMETRY tags used by the CFD boundary
  conditions.
* :func:`box_mesh` — a jittered tetrahedralized box, the workhorse for unit
  and property tests.
* :func:`delaunay_cloud_mesh` — a Delaunay tetrahedralization of a random
  point cloud, used to property-test structure code on genuinely irregular
  connectivity.
* :func:`mesh_c_prime` / :func:`mesh_d_prime` — laptop-scale stand-ins for
  the paper's Mesh-C and Mesh-D, with the same roles (single-node dataset /
  multi-node dataset), numbered by RCM unless ``ordering="natural"``.

What must carry over from the real meshes for the reproduction to be
meaningful is purely structural: tetrahedral vertex-centered connectivity,
average degree ~13-14 (edge/vertex ratio ~6.7), surface clustering, and a
"natural" vertex order with partial locality.  All generators deliver that;
the natural order is the baseline the paper's RCM pass improves on.
"""

from __future__ import annotations

import numpy as np

from .core import TAG_FARFIELD, TAG_SYMMETRY, TAG_WALL, UnstructuredMesh, tet_volumes

__all__ = [
    "box_mesh",
    "wing_mesh",
    "delaunay_cloud_mesh",
    "mesh_c_prime",
    "mesh_d_prime",
    "structured_to_tets",
]

# Kuhn subdivision of a hexahedron into six tetrahedra.  Corners are numbered
# by the binary encoding c = ix + 2*iy + 4*iz of their local offsets; every
# tet runs from corner 0 to corner 7 along one of the 3! axis orders, which
# guarantees matching face diagonals between neighboring hexes (including
# periodic wraparound, because the rule depends only on local corner labels).
_KUHN_TETS = np.array(
    [
        (0, 1, 3, 7),  # x, y, z
        (0, 1, 5, 7),  # x, z, y
        (0, 2, 3, 7),  # y, x, z
        (0, 2, 6, 7),  # y, z, x
        (0, 4, 5, 7),  # z, x, y
        (0, 4, 6, 7),  # z, y, x
    ],
    dtype=np.int64,
)

# Outward-oriented faces of a positively oriented tet (v0, v1, v2, v3).
_TET_FACES = np.array(
    [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)],
    dtype=np.int64,
)


def _fix_orientation(coords: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Swap two vertices of every negatively oriented tet."""
    vols = tet_volumes(coords, tets)
    flip = vols < 0.0
    if np.any(flip):
        tets = tets.copy()
        tets[flip, 0], tets[flip, 1] = tets[flip, 1].copy(), tets[flip, 0].copy()
    return tets


def boundary_faces_from_tets(tets: np.ndarray, n_vertices: int) -> np.ndarray:
    """Outward-oriented boundary triangles: tet faces that occur exactly once.

    Because each face row of ``_TET_FACES`` is outward for a positively
    oriented tet, the surviving faces are already correctly oriented.
    """
    faces = tets[:, _TET_FACES].reshape(-1, 3)
    key = np.sort(faces, axis=1)
    nv = np.int64(n_vertices)
    keys = (key[:, 0] * nv + key[:, 1]) * nv + key[:, 2]
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    # boundaries of runs of equal keys
    is_start = np.empty(sk.shape[0], dtype=bool)
    is_start[0] = True
    np.not_equal(sk[1:], sk[:-1], out=is_start[1:])
    run_id = np.cumsum(is_start) - 1
    counts = np.bincount(run_id)
    once = counts[run_id] == 1
    return faces[order[once]]


def structured_to_tets(
    shape: tuple[int, int, int],
    periodic_i: bool = False,
) -> np.ndarray:
    """Tetrahedra of a structured ``(ni, nj, nk)`` vertex grid (Kuhn split).

    Vertex (i, j, k) has index ``(i % ni) * nj * nk + j * nk + k``.  With
    ``periodic_i`` the i direction wraps around (O-grid topology).
    """
    ni, nj, nk = shape
    ci = ni if periodic_i else ni - 1
    ii, jj, kk = np.meshgrid(
        np.arange(ci), np.arange(nj - 1), np.arange(nk - 1), indexing="ij"
    )
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()

    def vid(di: int, dj: int, dk: int) -> np.ndarray:
        return ((ii + di) % ni) * (nj * nk) + (jj + dj) * nk + (kk + dk)

    corners = np.stack(
        [vid(b & 1, (b >> 1) & 1, (b >> 2) & 1) for b in range(8)], axis=1
    )
    return corners[:, _KUHN_TETS].reshape(-1, 4)


def _jitter(
    coords: np.ndarray,
    interior: np.ndarray,
    spacing: np.ndarray,
    amplitude: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Displace interior vertices by ``amplitude * local spacing``."""
    out = coords.copy()
    noise = rng.uniform(-1.0, 1.0, size=(int(interior.sum()), 3))
    out[interior] += amplitude * spacing[interior, None] * noise
    return out


def box_mesh(
    shape: tuple[int, int, int] = (6, 6, 6),
    bounds: tuple[float, float] = (0.0, 1.0),
    jitter: float = 0.0,
    seed: int = 0,
    name: str = "box",
) -> UnstructuredMesh:
    """Tetrahedralized box on a jittered structured grid.

    ``shape`` counts vertices per axis.  All boundary faces are tagged
    FARFIELD; the CFD tests re-tag as needed.
    """
    ni, nj, nk = shape
    if min(shape) < 2:
        raise ValueError("box_mesh needs at least 2 vertices per axis")
    lo, hi = bounds
    xs = np.linspace(lo, hi, ni)
    ys = np.linspace(lo, hi, nj)
    zs = np.linspace(lo, hi, nk)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    coords = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    if jitter > 0.0:
        ii, jj, kk = np.meshgrid(
            np.arange(ni), np.arange(nj), np.arange(nk), indexing="ij"
        )
        interior = (
            (ii.ravel() > 0)
            & (ii.ravel() < ni - 1)
            & (jj.ravel() > 0)
            & (jj.ravel() < nj - 1)
            & (kk.ravel() > 0)
            & (kk.ravel() < nk - 1)
        )
        h = (hi - lo) / max(ni - 1, nj - 1, nk - 1)
        rng = np.random.default_rng(seed)
        coords = _jitter(coords, interior, np.full(coords.shape[0], h), jitter, rng)

    tets = structured_to_tets(shape, periodic_i=False)
    tets = _fix_orientation(coords, tets)
    bfaces = boundary_faces_from_tets(tets, coords.shape[0])
    btags = np.full(bfaces.shape[0], TAG_FARFIELD, dtype=np.int64)
    return UnstructuredMesh(coords, tets, bfaces, btags, name=name)


def wing_mesh(
    n_around: int = 48,
    n_radial: int = 16,
    n_span: int = 12,
    chord: float = 1.0,
    span: float = 1.2,
    thickness: float = 0.10,
    taper: float = 0.56,
    sweep_deg: float = 30.0,
    farfield_radius: float = 6.0,
    radial_stretch: float = 1.25,
    jitter: float = 0.12,
    seed: int = 7,
    ordering: str = "frontal",
    name: str = "wing",
) -> UnstructuredMesh:
    """O-grid tetrahedral mesh around a swept, tapered elliptic-section wing.

    The planform mimics the ONERA M6 (taper ratio 0.56, ~30 degrees leading
    edge sweep); the section is an ellipse of relative ``thickness`` so the
    O-grid closes smoothly at the trailing edge (an Euler-friendly
    simplification of the M6's sharp airfoil, documented in DESIGN.md).

    Topology per span station: ``n_around`` points wrap the section
    (periodic), ``n_radial`` rings stretch geometrically to a circular far
    field.  Boundary tags: inner ring WALL, outer ring FARFIELD, root and tip
    planes SYMMETRY (full-span wing between symmetry planes).

    ``ordering`` sets the "natural" vertex numbering the mesh ships with:

    * ``"frontal"`` (default) mimics an advancing-front generator: vertices
      are numbered ring by ring outward from the wing surface, shuffled
      within each ring.  This reproduces the partial-locality natural
      orderings of real FUN3D meshes — the baseline against which RCM
      reordering and METIS thread-partitioning pay off in the paper.
    * ``"structured"`` keeps the raw (i, j, k) sweep (high locality).
    * ``"random"`` scrambles completely (worst case, for ablations).
    """
    if n_around < 8 or n_radial < 3 or n_span < 2:
        raise ValueError("wing_mesh resolution too small")
    rng = np.random.default_rng(seed)

    theta = np.linspace(0.0, 2.0 * np.pi, n_around, endpoint=False)
    # Geometric radial distribution in [0, 1]: clustered at the wall.
    t = np.empty(n_radial)
    step = 1.0
    acc = 0.0
    levels = [0.0]
    for _ in range(n_radial - 1):
        acc += step
        levels.append(acc)
        step *= radial_stretch
    t[:] = np.asarray(levels) / acc

    zs = np.linspace(0.0, span, n_span)
    sweep = np.tan(np.deg2rad(sweep_deg))

    # Build coordinates on the (i, j, k) = (around, radial, span) grid.
    grid = np.empty((n_around, n_radial, n_span, 3))
    for k, z in enumerate(zs):
        frac = z / span
        c = chord * (1.0 + (taper - 1.0) * frac)  # local chord
        x_le = sweep * z  # leading-edge offset
        # Section curve: ellipse centered mid-chord.
        xs_section = x_le + 0.5 * c * (1.0 + np.cos(theta))
        ys_section = 0.5 * thickness * c * np.sin(theta)
        # Far-field ring: circle around the local mid-chord.
        xc = x_le + 0.5 * c
        xf = xc + farfield_radius * chord * np.cos(theta)
        yf = farfield_radius * chord * np.sin(theta)
        for j in range(n_radial):
            w = t[j]
            grid[:, j, k, 0] = (1.0 - w) * xs_section + w * xf
            grid[:, j, k, 1] = (1.0 - w) * ys_section + w * yf
            grid[:, j, k, 2] = z

    # Per-vertex spacing: minimum distance to the six structured neighbors
    # (periodic in i).  This keeps the jitter fold-free even near the
    # trailing edge where the O-grid cells are tiny.
    def _neighbor_dist(shifted: np.ndarray) -> np.ndarray:
        return np.linalg.norm(shifted - grid, axis=-1)

    dists = [
        _neighbor_dist(np.roll(grid, 1, axis=0)),
        _neighbor_dist(np.roll(grid, -1, axis=0)),
    ]
    dj = np.full(grid.shape[:3], np.inf)
    dj[:, 1:, :] = np.minimum(
        dj[:, 1:, :], np.linalg.norm(grid[:, 1:] - grid[:, :-1], axis=-1)
    )
    dj[:, :-1, :] = np.minimum(
        dj[:, :-1, :], np.linalg.norm(grid[:, 1:] - grid[:, :-1], axis=-1)
    )
    dk = np.full(grid.shape[:3], np.inf)
    dk[:, :, 1:] = np.minimum(
        dk[:, :, 1:], np.linalg.norm(grid[:, :, 1:] - grid[:, :, :-1], axis=-1)
    )
    dk[:, :, :-1] = np.minimum(
        dk[:, :, :-1], np.linalg.norm(grid[:, :, 1:] - grid[:, :, :-1], axis=-1)
    )
    spacing = np.minimum(np.minimum(dists[0], dists[1]), np.minimum(dj, dk))
    coords = grid.reshape(-1, 3)
    spacing = spacing.reshape(-1)

    shape = (n_around, n_radial, n_span)
    tets = structured_to_tets(shape, periodic_i=True)
    tets = _fix_orientation(coords, tets)

    if jitter > 0.0:
        jj = (np.arange(coords.shape[0]) // n_span) % n_radial
        kk = np.arange(coords.shape[0]) % n_span
        interior = (jj > 0) & (jj < n_radial - 1) & (kk > 0) & (kk < n_span - 1)
        # Retry with halved amplitude until no tet folds; the structured
        # mesh itself is fold-free, so this terminates.
        base = coords
        amp = jitter
        for _ in range(8):
            coords = _jitter(base, interior, spacing, amp, rng)
            if tet_volumes(coords, tets).min() > 0.0:
                break
            amp *= 0.5
        else:
            coords = base

    vols = tet_volumes(coords, tets)
    if np.any(vols <= 0.0):
        raise RuntimeError(
            "wing_mesh produced degenerate tets; reduce jitter or resolution"
        )

    bfaces = boundary_faces_from_tets(tets, coords.shape[0])
    # Tag by the structured indices of the face vertices.
    j_of = (bfaces // n_span) % n_radial
    k_of = bfaces % n_span
    btags = np.full(bfaces.shape[0], -1, dtype=np.int64)
    btags[np.all(j_of == 0, axis=1)] = TAG_WALL
    btags[np.all(j_of == n_radial - 1, axis=1)] = TAG_FARFIELD
    on_sym = np.all(k_of == 0, axis=1) | np.all(k_of == n_span - 1, axis=1)
    btags[(btags == -1) & on_sym] = TAG_SYMMETRY
    if np.any(btags == -1):
        raise RuntimeError("wing_mesh boundary tagging incomplete")
    mesh = UnstructuredMesh(coords, tets, bfaces, btags, name=name)

    if ordering == "structured":
        return mesh
    nv = coords.shape[0]
    if ordering == "random":
        perm = rng.permutation(nv).astype(np.int64)
    elif ordering == "frontal":
        jj = (np.arange(nv) // n_span) % n_radial
        order = np.argsort(jj, kind="stable")
        # shuffle within each ring (equal-j block)
        ring = n_around * n_span
        for j in range(n_radial):
            block = order[j * ring : (j + 1) * ring]
            rng.shuffle(block)
        perm = np.empty(nv, dtype=np.int64)
        perm[order] = np.arange(nv)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return mesh.relabeled(perm)


def delaunay_cloud_mesh(
    n_points: int = 200,
    seed: int = 0,
    name: str = "cloud",
) -> UnstructuredMesh:
    """Delaunay tetrahedralization of a uniform random cloud in a unit ball.

    Used by property tests that need genuinely irregular connectivity.  The
    tetrahedra can be poorly shaped (slivers), so this mesh exercises
    structural code paths, not flow solves.
    """
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.2, 1.0, size=(n_points, 1)) ** (1.0 / 3.0)
    tri = Delaunay(pts)
    tets = tri.simplices.astype(np.int64)
    # Drop near-degenerate slivers which would make dual volumes collapse.
    vols = tet_volumes(pts, tets)
    tets = np.where(vols[:, None] < 0, tets[:, [1, 0, 2, 3]], tets)
    vols = np.abs(vols)
    keep = vols > vols.max() * 1e-9
    tets = tets[keep]
    # Keep only vertices referenced by surviving tets.
    used = np.unique(tets)
    remap = -np.ones(n_points, dtype=np.int64)
    remap[used] = np.arange(used.shape[0])
    tets = remap[tets]
    pts = pts[used]
    bfaces = boundary_faces_from_tets(tets, pts.shape[0])
    btags = np.full(bfaces.shape[0], TAG_FARFIELD, dtype=np.int64)
    return UnstructuredMesh(pts, tets, bfaces, btags, name=name)


def _numbered(mesh: UnstructuredMesh, ordering: str) -> UnstructuredMesh:
    """``mesh`` as generated (``"natural"``) or relabeled by RCM (``"rcm"``)."""
    if ordering == "rcm":
        from ..ordering import rcm_relabel

        return rcm_relabel(mesh)
    if ordering != "natural":
        raise ValueError(f"unknown ordering {ordering!r}")
    return mesh


def mesh_c_prime(
    scale: float = 1.0, seed: int = 7, ordering: str = "rcm"
) -> UnstructuredMesh:
    """Laptop-scale analogue of the paper's Mesh-C (single-node dataset).

    At ``scale=1`` this yields ~25k vertices / ~170k edges — the same
    edge-per-vertex ratio as Mesh-C (6.7) at roughly 1/14 the size, sized so
    a NumPy flux evaluation takes milliseconds rather than minutes.

    ``ordering="rcm"`` (default) numbers the vertices by Reverse
    Cuthill-McKee, as the paper does before threading (Section V.A);
    ``"natural"`` keeps the generator's frontal order, the paper's
    unoptimized baseline.
    """
    f = float(scale) ** (1.0 / 3.0)
    mesh = wing_mesh(
        n_around=max(12, int(round(64 * f))),
        n_radial=max(6, int(round(24 * f))),
        n_span=max(4, int(round(16 * f))),
        seed=seed,
        name=f"mesh-c-prime(x{scale:g})",
    )
    return _numbered(mesh, ordering)


def mesh_d_prime(
    scale: float = 1.0, seed: int = 11, ordering: str = "rcm"
) -> UnstructuredMesh:
    """Laptop-scale analogue of the paper's Mesh-D (multi-node dataset).

    ~3.5x the vertices of :func:`mesh_c_prime`, preserving the Mesh-D /
    Mesh-C size ratio's role: the mesh that still has enough work per rank
    at high rank counts.  ``ordering`` as for :func:`mesh_c_prime`.
    """
    f = float(scale) ** (1.0 / 3.0)
    mesh = wing_mesh(
        n_around=max(16, int(round(96 * f))),
        n_radial=max(8, int(round(32 * f))),
        n_span=max(6, int(round(28 * f))),
        seed=seed,
        name=f"mesh-d-prime(x{scale:g})",
    )
    return _numbered(mesh, ordering)


def dataset_mesh(
    dataset: str,
    scale: float = 0.12,
    seed: int = 7,
    ordering: str = "rcm",
) -> UnstructuredMesh:
    """Named-dataset factory behind the CLI's mesh arguments.

    ``dataset`` is ``mesh-c`` / ``mesh-d`` / ``wing``; ``ordering`` is
    ``rcm`` (default) or ``natural``, applied once, by the generator.  The
    same spec always builds the bit-identical mesh (the generators are
    seeded).
    """
    if dataset == "mesh-c":
        return mesh_c_prime(scale=scale, seed=seed, ordering=ordering)
    if dataset == "mesh-d":
        return mesh_d_prime(scale=scale, seed=seed, ordering=ordering)
    if dataset == "wing":
        f = max(0.2, float(scale) ** (1.0 / 3.0))
        mesh = wing_mesh(
            n_around=max(12, int(48 * f)),
            n_radial=max(5, int(16 * f)),
            n_span=max(4, int(12 * f)),
            seed=seed,
        )
        return _numbered(mesh, ordering)
    raise ValueError(f"unknown dataset {dataset!r}")
