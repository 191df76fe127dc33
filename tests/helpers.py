"""Shared fixtures for the test suite: small lattices and random graphs."""

import numpy as np
from hypothesis import strategies as st

from sepal.core import SpotTable
from sepal.nn import GraphBatch, NodeTable, backward, spatial_forward
from sepal.spatial import DISTANCE_DECIMALS, Adjacency


def spot_table(records, slide="s0"):
    """A SpotTable from (spot_id, pixel_x, pixel_y, array_row, array_col)
    tuples, in any order."""
    ids, xs, ys, rows, cols = zip(*records)
    return SpotTable(slide, ids, np.column_stack((xs, ys)),
                     np.column_stack((rows, cols)))


def grid_spots(rows, cols, slide="s0", spacing=1.0):
    return spot_table([(f"r{r}c{c}", c * spacing, r * spacing, r, c)
                       for r in range(rows) for c in range(cols)], slide)


def hex_spots(rows, cols_per_row, slide="s0", s=1.0):
    """Staggered lattice: row r holds array columns r%2, r%2+2, ...
    Pixel spacing puts all six lattice neighbors at distance 2s."""
    return spot_table([(f"r{r}c{c}", c * s, r * s * np.sqrt(3.0), r, c)
                       for r in range(rows)
                       for c in range(r % 2, r % 2 + 2 * cols_per_row, 2)],
                      slide)


@st.composite
def lattices_with_holes(draw, max_side=7):
    """(spots, geometry): a hex_array or square_grid lattice with exact
    pixels, as hex_spots and grid_spots place them, less a random set of
    its spots; at least two spots stay."""
    geometry = draw(st.sampled_from(("hex_array", "square_grid")))
    lattice = hex_spots if geometry == "hex_array" else grid_spots
    full = lattice(draw(st.integers(1, max_side)),
                   draw(st.integers(2, max_side)))
    holes = draw(st.sets(st.integers(0, len(full) - 1),
                         max_size=len(full) - 2))
    return full.subset([s for k, s in enumerate(full.spot_ids)
                        if k not in holes]), geometry


def index_by_position(spots):
    """{(array_row, array_col): row} over a SpotTable."""
    return {(r, c): i for i, (r, c) in enumerate(spots.array.tolist())}


def ring_lists(rings):
    """A RadialNeighborhood as one tuple of ring member arrays per spot,
    the form reference.build_radial_neighborhoods returns."""
    out = []
    for members, ends in zip(rings.members, rings.ring_ends):
        bounds = np.unique(np.r_[0, ends])
        out.append(tuple(members[a:b] for a, b in zip(bounds[:-1],
                                                      bounds[1:])))
    return tuple(out)


def ring_distances(spots, rings):
    """Each spot's ring distances, read off the ring members' pixel
    positions: the one rounded distance every member of a ring shares."""
    xy = spots.pixel
    out = []
    for i, members in enumerate(ring_lists(rings)):
        per_ring = []
        for ring in members:
            d = np.unique(np.round(np.hypot(*(xy[ring] - xy[i]).T),
                                   DISTANCE_DECIMALS))
            assert d.size == 1, f"ring of spot {i} spans distances {d}"
            per_ring.append(float(d[0]))
        out.append(tuple(per_ring))
    return tuple(out)


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
    return Adjacency("rnd", n, edges), rng


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


def node_hops(adjacency, subgraph):
    """Each node's hop distance from its subgraph's center, nodes[0]."""
    dist = bfs_distances(adjacency.n_spots, adjacency.edges,
                         int(subgraph.nodes[0]))
    return [dist[int(v)] for v in subgraph.nodes]


def dense(prop):
    """The [n, n] matrix a sepal.nn propagation stands for."""
    n = sum(rows.size for _, rows in prop)
    out = np.zeros((n, n), prop[0][0].dtype if prop else np.float64)
    for block, rows in prop:
        for r in rows:
            out[np.ix_(r, r)] = block
    return out


def pack_rows(features, sizes, edges):
    """GraphBatch.pack over a table of the feature matrix's own rows, with
    no encoding columns beside them: node i is row i."""
    features = np.asarray(features)
    table = NodeTable(features, np.zeros((1, 0), features.dtype), "concat",
                      features.dtype)
    rows = np.arange(features.shape[0], dtype=np.int64)
    return GraphBatch.pack(table, sizes, edges, rows, np.zeros_like(rows))


def local_edges(batch):
    """A GraphBatch's edges in local node ids, one array per graph: the
    form GraphBatch.pack and pack_rows take."""
    return [batch.shapes[t].edges for t in batch.topology]


def packed_edges(batch):
    """A GraphBatch's edges as batch rows, graph by graph: the form the
    padded reference operators take."""
    firsts = np.cumsum(batch.sizes) - batch.sizes
    return np.concatenate(
        [np.zeros((0, 2), np.int64)]
        + [e + f for e, f in zip(local_edges(batch), firsts)])


def propagation(kind, edges, sizes, dtype=np.float64):
    """The adj or gcn propagation of graphs of the given sizes whose
    edges index batch rows, in dtype.  Each edge goes to the graph that
    owns its first endpoint, in the order listed."""
    sizes = np.asarray(sizes, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ends = np.cumsum(sizes)
    owner = np.searchsorted(ends, edges[:, 0], side="right")
    local = [edges[owner == g] - (end - k)
             for g, (end, k) in enumerate(zip(ends, sizes))]
    features = np.zeros((int(sizes.sum()), 1), dtype)
    return pack_rows(features, sizes, local).propagation(kind)


def mse_grad(out, target):
    """mean((out - target)^2) and its gradient with respect to out, in
    out's dtype."""
    d = out - target
    return float(np.mean(d * d)), ((2.0 / d.size) * d).astype(out.dtype)


def layer_mse(layer, x, params, target):
    """mse(layer(x, *params), target) and, from the layer's backward, the
    gradients of x and of each parameter.  The layer gets a copy of x,
    which elu writes over."""
    out, layer_backward = layer(x.copy(), *params)
    loss, grad = mse_grad(out, target)
    g_x, g_params = layer_backward(grad, True)
    return loss, [g_x, *g_params]


def model_mse(state, batch, target):
    """mse(spatial_forward(state, batch), target) and the gradient of each
    parameter, in the order of state.params, from one step's tape."""
    tape = []
    loss, grad = mse_grad(spatial_forward(state, batch, tape), target)
    grads = backward(tape, grad)
    return loss, [grads[k] for k in state.params]
