"""Reverse Cuthill-McKee vertex reordering.

The paper reorders vertex numbering with RCM "to improve locality" before
threading the edge loops: RCM clusters each vertex's neighbors into a narrow
index band, so the gathers in the edge-based kernels hit nearby cache lines
and the Jacobian's BCSR profile narrows (which also shortens ILU/TRSV level
structures).  Implemented from scratch on the CSR adjacency, one whole BFS
level per batch of array operations; :func:`_cuthill_mckee_reference` is the
one-vertex-at-a-time queue it reproduces exactly.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["cuthill_mckee", "reverse_cuthill_mckee", "pseudo_peripheral_vertex"]


def pseudo_peripheral_vertex(
    rowptr: np.ndarray, cols: np.ndarray, start: int = 0
) -> int:
    """Find a pseudo-peripheral vertex by repeated BFS (George-Liu).

    Starting from ``start``, walk to a vertex of maximal BFS eccentricity;
    such vertices make good RCM roots because they stretch the level
    structure, minimizing its width (and hence the reordered bandwidth).
    """
    n = rowptr.shape[0] - 1
    if n == 0:
        raise ValueError("empty graph")
    return _peripheral(rowptr, cols, start, None, n)


def _peripheral(
    rowptr: np.ndarray,
    cols: np.ndarray,
    start: int,
    blocked: np.ndarray | None,
    rounds: int,
) -> int:
    """At most ``rounds`` BFS hops to the lowest-degree vertex of the last
    level, stopping when the eccentricity stops growing; ``blocked``
    vertices are outside the graph."""
    current = start
    last_ecc = -1
    for _ in range(rounds):
        levels = _bfs_levels(rowptr, cols, current, blocked)
        ecc = int(levels.max())
        if ecc <= last_ecc:
            return current
        last_ecc = ecc
        far = np.flatnonzero(levels == ecc)
        degs = rowptr[far + 1] - rowptr[far]
        current = int(far[np.argmin(degs)])
    return current


def _bfs_levels(
    rowptr: np.ndarray,
    cols: np.ndarray,
    root: int,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """BFS level of every vertex from ``root``, -1 where unreached."""
    levels = np.full(rowptr.shape[0] - 1, -1, dtype=np.int64)
    if blocked is not None:
        levels[blocked] = -2  # never reached, never counted
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    lvl = 0
    while frontier.size:
        lvl += 1
        nbrs = _neighbors_of(rowptr, cols, frontier)
        levels[nbrs[levels[nbrs] == -1]] = lvl
        frontier = np.flatnonzero(levels == lvl)
    return levels


def _neighbors_of(rowptr: np.ndarray, cols: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """The adjacency rows of ``verts``, concatenated in the order given."""
    starts = rowptr[verts]
    counts = rowptr[verts + 1] - starts
    # position k of row r reads cols[starts[r] + k]: one arange shifted per row
    shift = starts - (np.cumsum(counts) - counts)
    return cols[np.repeat(shift, counts) + np.arange(int(counts.sum()))]


def cuthill_mckee(
    rowptr: np.ndarray, cols: np.ndarray, root: int | None = None
) -> np.ndarray:
    """Cuthill-McKee ordering: BFS visiting neighbors by increasing degree.

    Returns ``order`` such that ``order[p]`` is the original index of the
    vertex placed at position ``p``.  Disconnected components are handled by
    restarting from a fresh pseudo-peripheral vertex.

    Level-synchronous: the queue that visits one vertex at a time
    (:func:`_cuthill_mckee_reference`) places each unvisited neighbor of a
    level right after the *first* vertex of that level that reaches it,
    ordered there by (degree, id).  So each next level is the unvisited
    neighbors of this one, sorted by (position of that first parent,
    degree, id) — the same permutation, one level per array pass.
    """
    n = rowptr.shape[0] - 1
    degree = rowptr[1:] - rowptr[:-1]
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        if root is None or pos > 0:
            unvisited = np.flatnonzero(~visited)
            sub_start = int(unvisited[np.argmin(degree[unvisited])])
            r = _peripheral(rowptr, cols, sub_start, visited, 64)
        else:
            r = root
        frontier = np.array([r], dtype=np.int64)
        visited[r] = True
        while frontier.size:
            order[pos : pos + frontier.size] = frontier
            pos += frontier.size
            counts = rowptr[frontier + 1] - rowptr[frontier]
            parent = np.repeat(np.arange(frontier.size), counts)
            nbrs = _neighbors_of(rowptr, cols, frontier)
            fresh = ~visited[nbrs]
            # rows are concatenated in frontier order, so a neighbor's first
            # occurrence is its first parent
            nbrs, first = np.unique(nbrs[fresh], return_index=True)
            parent = parent[fresh][first]
            frontier = nbrs[np.lexsort((nbrs, degree[nbrs], parent))]
            visited[frontier] = True
        root = None
    return order


def reverse_cuthill_mckee(
    rowptr: np.ndarray, cols: np.ndarray, root: int | None = None
) -> np.ndarray:
    """RCM ordering (Cuthill-McKee reversed); see :func:`cuthill_mckee`.

    The returned ``order`` maps position -> original vertex.  To relabel a
    mesh, pass the inverse permutation (``perm[order] = arange(n)``) to
    :meth:`UnstructuredMesh.relabeled`.
    """
    return cuthill_mckee(rowptr, cols, root)[::-1].copy()


# ---------------------------------------------------------------------------
# one vertex at a time: the regression oracle of the level-synchronous code
# ---------------------------------------------------------------------------
def _bfs_levels_reference(
    rowptr: np.ndarray, cols: np.ndarray, root: int, blocked: np.ndarray | None
) -> np.ndarray:
    levels = np.full(rowptr.shape[0] - 1, -1, dtype=np.int64)
    levels[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in cols[rowptr[v] : rowptr[v + 1]]:
            if levels[u] < 0 and (blocked is None or not blocked[u]):
                levels[u] = levels[v] + 1
                queue.append(int(u))
    return levels


def _peripheral_reference(
    rowptr: np.ndarray,
    cols: np.ndarray,
    start: int,
    blocked: np.ndarray | None,
    rounds: int,
) -> int:
    """:func:`_peripheral` over the queue's BFS (the oracle of it and of
    :func:`pseudo_peripheral_vertex`, with ``rounds = n``)."""
    current = start
    last_ecc = -1
    for _ in range(rounds):
        levels = _bfs_levels_reference(rowptr, cols, current, blocked)
        ecc = int(levels.max())
        if ecc <= last_ecc:
            return current
        last_ecc = ecc
        far = np.where(levels == ecc)[0]
        degs = rowptr[far + 1] - rowptr[far]
        current = int(far[np.argmin(degs)])
    return current


def _cuthill_mckee_reference(
    rowptr: np.ndarray, cols: np.ndarray, root: int | None = None
) -> np.ndarray:
    """The plain queue (regression oracle for :func:`cuthill_mckee`)."""
    n = rowptr.shape[0] - 1
    degree = (rowptr[1:] - rowptr[:-1]).astype(np.int64)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        if root is None or pos > 0:
            unvisited = np.where(~visited)[0]
            sub_start = int(unvisited[np.argmin(degree[unvisited])])
            r = _peripheral_reference(rowptr, cols, sub_start, visited, 64)
        else:
            r = root
        queue: deque[int] = deque([r])
        visited[r] = True
        while queue:
            v = queue.popleft()
            order[pos] = v
            pos += 1
            nbrs = cols[rowptr[v] : rowptr[v + 1]]
            fresh = nbrs[~visited[nbrs]]
            if fresh.size:
                fresh = np.unique(fresh)
                fresh = fresh[np.argsort(degree[fresh], kind="stable")]
                visited[fresh] = True
                queue.extend(int(u) for u in fresh)
        root = None
    return order
