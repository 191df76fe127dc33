"""Shared fixtures for the test suite: small lattices and random graphs."""

import numpy as np

from sepal.core import SpotRecord
from sepal.spatial import Adjacency


def grid_spots(rows, cols, slide="s0", spacing=1.0):
    return [SpotRecord(f"r{r}c{c}", slide, c * spacing, r * spacing, r, c)
            for r in range(rows) for c in range(cols)]


def hex_spots(rows, cols_per_row, slide="s0", s=1.0):
    """Staggered lattice: row r holds array columns r%2, r%2+2, ...
    Pixel spacing puts all six lattice neighbors at distance 2s."""
    spots = []
    for r in range(rows):
        for k in range(cols_per_row):
            c = (r % 2) + 2 * k
            spots.append(SpotRecord(
                f"r{r}c{c}", slide, c * s, r * s * np.sqrt(3.0), r, c))
    return spots


def random_adjacency(seed, n_min=2, n_max=30, connected=True):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    pairs = set()
    if connected:
        for i in range(n - 1):
            pairs.add((i, i + 1))
    extra = int(rng.integers(0, max(1, n * 2)))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return Adjacency("rnd", n, edges, "auto_radius"), rng


def bfs_distances(n, edges, source):
    """Plain queue BFS over an edge list; returns hop distance or -1."""
    neigh = [[] for _ in range(n)]
    for i, j in edges:
        neigh[int(i)].append(int(j))
        neigh[int(j)].append(int(i))
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    while queue:
        u = queue.pop(0)
        for v in neigh[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def dense(op):
    """The [n, n] matrix a sepal.nn.BlockDiagonal stands for."""
    out = np.zeros(op.shape, op.blocks.dtype)
    firsts = np.cumsum(op.sizes) - op.sizes
    for block, first, k in zip(op.blocks, firsts, op.sizes):
        out[first:first + k, first:first + k] = block[:k, :k]
    return out
