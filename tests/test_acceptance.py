"""Whole-pipeline acceptance suite.

One test per shipped guarantee.  Each prints a single verdict line, so
`pytest -v -s tests/test_acceptance.py` doubles as a release checklist.
"""

import time

import numpy as np
import pytest

from helpers import bfs_distances, grid_spots, hex_spots, random_adjacency
from reference import from_graphs
from sepal.cli import main as cli_main
from sepal.core import ExpressionMatrix, align_slide
from sepal.denoise import (
    build_radial_neighborhoods,
    denoise_slide,
    impute_gene_map,
)
from sepal.graphs import build_spot_graphs, khop_subgraph
from sepal.metrics import evaluate
from sepal.nn import (
    GraphBatch,
    ModelSpec,
    Tensor,
    adj_matrix,
    backward,
    constant,
    elu,
    gcn_conv,
    gcn_matrix,
    global_mean_readout,
    graph_conv,
    init_model_state,
    linear,
    mse,
    sag_mean_readout,
    spatial_forward,
    tanh,
)
from sepal.spatial import Adjacency, build_adjacency, morans_i, select_genes
from sepal.synth import SynthConfig, generate_dataset
from sepal.train import (
    TrainConfig,
    linear_prediction,
    stage1_train,
    stage2_train,
)


def verdict(number, label, ok, detail):
    print(f"criterion {number:2d} ({label}): "
          f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({label}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences

FD_EPS = 1e-5
FD_TOL = 1e-4


def fd_worst_error(params, loss_fn):
    """Largest relative gap between recorded and numeric gradients."""
    for t in params:
        t.zero_grad()
    backward(loss_fn())
    worst = 0.0
    for t in params:
        analytic = t.grad.reshape(-1).copy()
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + FD_EPS
            up = float(loss_fn().data)
            flat[i] = keep - FD_EPS
            down = float(loss_fn().data)
            flat[i] = keep
            numeric = (up - down) / (2.0 * FD_EPS)
            gap = abs(analytic[i] - numeric)
            worst = max(worst,
                        gap / max(1.0, abs(analytic[i]), abs(numeric)))
    return worst


def spanning_edges(rng, n):
    # connected by construction: a random spanning tree plus extras
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            pairs.add((a, b))
    return np.array(sorted(pairs), dtype=np.int64)


def layer_cases(rng):
    n = int(rng.integers(4, 9))
    edges = spanning_edges(rng, n)
    prop = gcn_matrix(n, edges)
    adjm = adj_matrix(n, edges)
    x = Tensor(rng.standard_normal((n, 4)))
    w = Tensor(0.7 * rng.standard_normal((3, 4)))
    w2 = Tensor(0.7 * rng.standard_normal((3, 4)))
    b = Tensor(0.3 * rng.standard_normal(3))
    score_w = Tensor(rng.standard_normal((1, 4)))
    t_nodes = constant(rng.standard_normal((n, 3)))
    t_feat = constant(rng.standard_normal((n, 4)))
    t_pool = constant(rng.standard_normal((2, 4)))
    t_single = constant(rng.standard_normal((1, 4)))
    cut = n // 2
    sizes = (cut, n - cut)
    return [
        ([x, w, b], lambda: mse(linear(x, w, b), t_nodes)),
        ([x], lambda: mse(elu(x), t_feat)),
        ([x], lambda: mse(tanh(x), t_feat)),
        ([x, w], lambda: mse(gcn_conv(x, prop, w), t_nodes)),
        ([x, w, w2, b], lambda: mse(graph_conv(x, adjm, w, w2, b),
                                    t_nodes)),
        ([x], lambda: mse(global_mean_readout(x, sizes), t_pool)),
        ([x, score_w], lambda: mse(
            sag_mean_readout(x, prop, score_w, 0.5, (n,)), t_single)),
    ]


def random_batch(rng, width, n_graphs=2):
    feats, edges, sizes = [], [], []
    offset = 0
    for _ in range(n_graphs):
        n = int(rng.integers(3, 6))
        feats.append(rng.standard_normal((n, width)))
        edges.append(spanning_edges(rng, n) + offset)
        sizes.append(n)
        offset += n
    return GraphBatch(
        features=np.concatenate(feats, axis=0),
        edges=np.concatenate(edges, axis=0),
        sizes=np.array(sizes, dtype=np.int64),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    worst = 0.0
    n_checked = 0
    for k in range(20):
        for params, loss_fn in layer_cases(np.random.default_rng(300 + k)):
            worst = max(worst, fd_worst_error(params, loss_fn))
            n_checked += 1
    for oi, op in enumerate(("gcn", "graphconv")):
        for pi, pool in enumerate(("global_mean", "sag_mean")):
            for k in range(20):
                rng = np.random.default_rng(1000 + 80 * oi + 40 * pi + k)
                spec = ModelSpec(in_width=3, n_genes=2, pre_widths=(4,),
                                 operator=op, gnn_widths=(3,), pooling=pool,
                                 post_widths=(2,))
                state = init_model_state(spec, seed=k)
                for t in state.params.values():
                    t.data[...] = 0.5 * rng.standard_normal(t.data.shape)
                batch = random_batch(rng, 3)
                target = constant(rng.standard_normal((batch.n_graphs, 2)))
                worst = max(worst, fd_worst_error(
                    list(state.params.values()),
                    lambda: mse(spatial_forward(state, batch), target)))
                n_checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= FD_TOL and elapsed < 60.0
    verdict(1, "gradient suite", ok,
            f"{n_checked} instances, max rel err {worst:.1e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: autocorrelation equals the dense double-sum form


def dense_double_sum(values, adjacency):
    """Textbook O(N^2) statistic with an explicit weight matrix."""
    n = adjacency.n_spots
    w = np.zeros((n, n))
    for a, b in adjacency.edges:
        w[a, b] = w[b, a] = 1.0
    z = values - values.mean()
    denom = float(z @ z)
    total = float(w.sum())
    if denom == 0.0 or total == 0.0:
        return None
    return n / total * float(z @ (w @ z)) / denom


def test_criterion_02_autocorrelation_oracle():
    worst = 0.0
    for k in range(50):
        adj, rng = random_adjacency(7000 + k, n_max=200)
        values = rng.standard_normal(adj.n_spots) * rng.uniform(0.5, 4.0)
        worst = max(worst,
                    abs(morans_i(values, adj) - dense_double_sum(values,
                                                                 adj)))
    pair = Adjacency("pair", 2, np.array([[0, 1]]), "auto_radius")
    anti = morans_i(np.array([1.75, -1.75]), pair)
    const_adj, _ = random_adjacency(99, n_min=6, n_max=6)
    const = morans_i(np.full(6, 2.5), const_adj)
    drift = 0.0
    for k in range(5):
        adj, rng = random_adjacency(7100 + k)
        v = rng.standard_normal(adj.n_spots)
        base = morans_i(v, adj)
        drift = max(drift, abs(morans_i(v + 37.25, adj) - base),
                    abs(morans_i(3.5 * v, adj) - base))
    ok = (worst <= 1e-10 and anti == -1.0 and const is None
          and drift <= 1e-12)
    verdict(2, "autocorrelation oracle", ok,
            f"50 graphs, max dev {worst:.1e}, anti-pair {anti}, "
            f"shift/scale drift {drift:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: planted smooth genes beat noise genes in selection


def test_criterion_03_planted_signal_selection():
    start = time.perf_counter()
    cfg = SynthConfig(grid_rows=20, grid_cols=20, d_emb=16, n_genes=256,
                      n_smooth=50, noise_sd=0.1, n_slides=3, seed=11)
    ds = generate_dataset(cfg)
    mats, adjs = [], []
    for sid in ds.slide_ids:
        spots, expr, _ = ds.parts[sid]
        mats.append(expr)
        adjs.append(build_adjacency(spots, cfg.geometry))
    selected, _ = select_genes(mats, adjs, 50)
    recovered = len(set(selected) & set(ds.smooth_gene_ids))
    elapsed = time.perf_counter() - start
    ok = recovered >= 48 and elapsed < 30.0
    verdict(3, "planted-signal selection", ok,
            f"{recovered}/50 smooth genes in top 50, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: denoiser contract and a hand-worked fixture


def test_criterion_04_denoiser_contract():
    rng = np.random.default_rng(5)
    spots = grid_spots(6, 6)
    vals = rng.uniform(0.5, 4.0, size=(36, 5))
    zeros = rng.random(vals.shape) < 0.2
    vals[zeros] = 0.0
    mat = ExpressionMatrix("s0", tuple(f"g{j}" for j in range(5)),
                           tuple(s.spot_id for s in spots), vals, "log1p")
    den, mask, _ = denoise_slide(mat, spots)
    nonzero_kept = np.array_equal(den.values[~zeros], vals[~zeros])
    mask_matches = np.array_equal(mask.values, zeros)

    clean = ExpressionMatrix("s0", mat.gene_ids, mat.spot_ids,
                             rng.uniform(0.5, 4.0, size=(36, 5)), "log1p")
    den2, mask2, _ = denoise_slide(clean, spots)
    fixed_point = (np.array_equal(den2.values, clean.values)
                   and int(mask2.values.sum()) == 0)

    # hand-worked 5 x 5 fixture on a unit grid.  Gene a resolves every
    # zero from its nearest nonzero ring; gene b has a single nonzero at
    # (4,4), beyond the 7-ring horizon of 12 spots, which therefore take
    # the whole-slide fallback median (the same 7.0).
    spots5 = grid_spots(5, 5)
    a = np.array([
        [0.0, 3.0, 7.0, 0.0, 0.0],
        [5.0, 1.5, 1.0, 9.0, 0.0],
        [2.5, 3.0, 0.0, 10.0, 4.0],
        [6.0, 8.0, 2.0, 5.5, 6.0],
        [1.0, 7.5, 3.5, 2.0, 0.0],
    ]).reshape(-1)
    want_a = a.copy()
    for flat, v in ((0, 4.0), (3, 8.0), (4, 9.0), (9, 6.5), (12, 2.5),
                    (24, 4.0)):
        want_a[flat] = v
    b = np.zeros(25)
    b[24] = 7.0
    fix = ExpressionMatrix("s0", ("ga", "gb"),
                           tuple(s.spot_id for s in spots5),
                           np.column_stack([a, b]), "log1p")
    den3, mask3, rep3 = denoise_slide(fix, spots5)
    hand_exact = (np.array_equal(den3.values[:, 0], want_a)
                  and np.array_equal(den3.values[:, 1], np.full(25, 7.0))
                  and int(mask3.values[:, 0].sum()) == 6
                  and int(mask3.values[:, 1].sum()) == 24)
    _, rb_fallback = impute_gene_map(b[:, None],
                                     build_radial_neighborhoods(spots5))
    fallback_ok = rb_fallback == 12 and rep3.n_fallback == 12

    ok = (nonzero_kept and mask_matches and fixed_point and hand_exact
          and fallback_ok)
    verdict(4, "denoiser contract", ok,
            f"nonzeros kept {nonzero_kept}, mask exact {mask_matches}, "
            f"fixed point {fixed_point}, hand fixture {hand_exact}, "
            f"fallback spots {rb_fallback}")


# ---------------------------------------------------------------------------
# criterion 5: metric identities and the filtered-array oracle


def oracle_aggregates(pred, truth, mask):
    keep = ~mask
    d = pred[keep] - truth[keep]
    out = {"mse": float(np.mean(d * d)), "mae": float(np.mean(np.abs(d)))}

    def stats(items):
        pccs, r2s = [], []
        for t, p in items:
            if t.size < 2:
                continue
            ss_tot = float(((t - t.mean()) ** 2).sum())
            if ss_tot == 0.0:
                continue
            r2s.append(1.0 - float(((p - t) ** 2).sum()) / ss_tot)
            if float(((p - p.mean()) ** 2).sum()) > 0.0:
                pccs.append(float(np.corrcoef(t, p)[0, 1]))
        return float(np.mean(pccs)), float(np.mean(r2s))

    out["pcc_gene"], out["r2_gene"] = stats(
        [(truth[keep[:, j], j], pred[keep[:, j], j])
         for j in range(truth.shape[1])])
    out["pcc_patch"], out["r2_patch"] = stats(
        [(truth[i, keep[i]], pred[i, keep[i]])
         for i in range(truth.shape[0])])
    return out


def test_criterion_05_metric_identities():
    rng = np.random.default_rng(6)
    truth = 2.0 * rng.standard_normal((30, 8)) + 1.0
    none = np.zeros(truth.shape, dtype=bool)
    rep = evaluate(truth.copy(), truth, none)
    identity_dev = max(abs(rep.mse), abs(rep.mae),
                       abs(rep.pcc_gene - 1.0), abs(rep.pcc_patch - 1.0),
                       abs(rep.r2_gene - 1.0), abs(rep.r2_patch - 1.0))

    mean_pred = np.tile(truth.mean(axis=0), (truth.shape[0], 1))
    mean_r2 = evaluate(mean_pred, truth, none).r2_gene

    oracle_dev = 0.0
    for k in range(20):
        r = np.random.default_rng(8000 + k)
        t = r.standard_normal((int(r.integers(10, 40)),
                               int(r.integers(4, 10))))
        p = t + 0.5 * r.standard_normal(t.shape)
        m = r.random(t.shape) < 0.25
        got = evaluate(p, t, m)
        want = oracle_aggregates(p, t, m)
        for key, have in (("mse", got.mse), ("mae", got.mae),
                          ("pcc_gene", got.pcc_gene),
                          ("pcc_patch", got.pcc_patch),
                          ("r2_gene", got.r2_gene),
                          ("r2_patch", got.r2_patch)):
            oracle_dev = max(oracle_dev, abs(have - want[key]))

    ok = (identity_dev <= 1e-12 and abs(mean_r2) <= 1e-9
          and oracle_dev <= 1e-10)
    verdict(5, "metric identities", ok,
            f"identity dev {identity_dev:.1e}, mean-pred r2 "
            f"{mean_r2:.1e}, oracle dev {oracle_dev:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: the correction starts exactly at the linear baseline


class _Graph:
    def __init__(self, features, edges):
        self.features = features
        self.edges = edges


def test_criterion_06_correction_starts_at_baseline():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((40, 6))
    w_true = rng.standard_normal((5, 6))
    y = x @ w_true.T + 0.05 * rng.standard_normal((40, 5))
    graphs = from_graphs([_Graph(rng.standard_normal((3, 6)),
                                 np.array([[0, 1], [0, 2]]))
                          for _ in range(40)])

    s1 = stage1_train(x[:30], y[:30], x[30:], y[30:])
    dh = linear_prediction(x, s1.weight, s1.bias)
    spec = ModelSpec(in_width=6, n_genes=5, pre_widths=(),
                     operator="graphconv", gnn_widths=(8,),
                     pooling="global_mean", post_widths=(5,))
    s2 = stage2_train(graphs.take(np.arange(30)), dh[:30], y[:30],
                      graphs.take(np.arange(30, 40)), dh[30:], y[30:], spec,
                      TrainConfig(learning_rate=0.01, batch_size=16,
                                  max_epochs=3, patience=3, seed=3))
    exact = (s2.initial_val_mse == s1.best_val_mse
             and s2.history[0].val_mse == s1.best_val_mse)
    verdict(6, "zero-start correction", exact,
            f"stage1 val {s1.best_val_mse!r} == stage2 initial "
            f"{s2.initial_val_mse!r}")


# ---------------------------------------------------------------------------
# criteria 7 and 8: the correction learns a neighborhood signal


@pytest.fixture(scope="module")
def neighborhood_problem():
    """Targets driven by the neighbor mean of the embeddings, so the
    linear per-spot baseline cannot fully explain them."""
    cfg = SynthConfig(grid_rows=20, grid_cols=20, d_emb=16, n_genes=32,
                      n_smooth=32, noise_sd=0.1, field_amplitude=0.0,
                      n_slides=3, seed=21)
    ds = generate_dataset(cfg)
    train_mean = ds.parts[ds.slide_ids[0]][1].values.mean(axis=0)
    out = {}
    for key, sid in (("train", ds.slide_ids[0]), ("val", ds.slide_ids[1])):
        spots, expr, emb = ds.parts[sid]
        slide = align_slide(spots, expr, emb)
        adj = build_adjacency(slide.spots, cfg.geometry)
        out[key] = {
            "x": slide.embeddings.vectors,
            "delta": slide.expression.values - train_mean,
            "graphs": build_spot_graphs(slide, adj, hops=1,
                                        aggregation="concat"),
        }
    return out


CORRECTION_SPEC = ModelSpec(in_width=32, n_genes=32, pre_widths=(),
                            operator="graphconv", gnn_widths=(64,),
                            pooling="global_mean", post_widths=(32,))


def test_criterion_07_neighborhood_signal(neighborhood_problem):
    start = time.perf_counter()
    tr, va = neighborhood_problem["train"], neighborhood_problem["val"]
    s1 = stage1_train(tr["x"], tr["delta"], va["x"], va["delta"])
    dh_tr = linear_prediction(tr["x"], s1.weight, s1.bias)
    dh_va = linear_prediction(va["x"], s1.weight, s1.bias)
    s2 = stage2_train(tr["graphs"], dh_tr, tr["delta"], va["graphs"],
                      dh_va, va["delta"], CORRECTION_SPEC,
                      TrainConfig(learning_rate=1e-3, batch_size=256,
                                  max_epochs=1500, patience=1500, seed=0,
                                  max_steps=3000))
    elapsed = time.perf_counter() - start
    ratio = s2.best_val_mse / s1.best_val_mse
    ok = ratio <= 0.8 and s2.n_steps <= 3000 and elapsed < 300.0
    verdict(7, "neighborhood signal", ok,
            f"val MSE {s1.best_val_mse:.5f} -> {s2.best_val_mse:.6f}, "
            f"ratio {ratio:.3f} <= 0.8, {s2.n_steps} steps, "
            f"{elapsed:.1f}s")


def test_criterion_08_overfit_sanity(neighborhood_problem):
    start = time.perf_counter()
    tr = neighborhood_problem["train"]
    x, d = tr["x"][:32], tr["delta"][:32]
    graphs = tr["graphs"].take(np.arange(32))
    s1 = stage1_train(x, d, None, None)
    dh = linear_prediction(x, s1.weight, s1.bias)
    s2 = stage2_train(graphs, dh, d, None, None, None, CORRECTION_SPEC,
                      TrainConfig(learning_rate=1e-2, batch_size=32,
                                  max_epochs=2000, patience=2000, seed=0,
                                  max_steps=2000))
    best = min(r.train_mse for r in s2.history if r.train_mse is not None)
    elapsed = time.perf_counter() - start
    ok = best <= 1e-2 and s2.n_steps <= 2000
    verdict(8, "overfit sanity", ok,
            f"train MSE {best:.1e} <= 1e-2 in {s2.n_steps} steps, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: single-threaded runs are byte-identical


def run_full_pipeline(data, out):
    manifest = str(data / "manifest.toml")
    assert cli_main(["synth", "--out", str(data), "--rows", "6", "--cols",
                     "6", "--d-emb", "8", "--genes", "8", "--smooth", "3",
                     "--slides", "3", "--zero-fraction", "0.05",
                     "--seed", "7"]) == 0
    base = ["--manifest", manifest, "--out", str(out)]
    for cmd in (["preprocess"], ["denoise"], ["select", "--n-genes", "4"],
                ["build-graphs", "--hops", "1", "--aggregation", "sum"],
                ["train", "--stage", "1"],
                ["train", "--stage", "2", "--epochs", "3",
                 "--patience", "3", "--hidden", "8", "--seed", "5"],
                ["eval"], ["figures"]):
        assert cli_main(cmd + base) == 0


def test_criterion_09_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_full_pipeline(a / "data", a / "run")
    run_full_pipeline(b / "data", b / "run")
    targets = ["run/eval/metrics.tsv", "run/train/stage1.ckpt",
               "run/train/stage2.ckpt", "run/figures/pcc_hist.csv"]
    heatmaps = sorted(p.relative_to(a)
                      for p in (a / "run" / "figures").rglob("*.ppm"))
    targets += [str(p) for p in heatmaps]
    identical = all((a / rel).read_bytes() == (b / rel).read_bytes()
                    for rel in targets)
    ok = identical and len(heatmaps) > 0
    verdict(9, "byte determinism", ok,
            f"{len(targets)} files compared, heatmaps {len(heatmaps)}")


# ---------------------------------------------------------------------------
# criterion 10: neighborhood extraction geometry


def test_criterion_10_geometry():
    spots = hex_spots(9, 9)
    adj = build_adjacency(spots, "hex_array")
    xs = np.array([s.pixel_x for s in spots])
    ys = np.array([s.pixel_y for s in spots])
    center = int(np.argmin((xs - xs.mean()) ** 2 + (ys - ys.mean()) ** 2))
    n1 = khop_subgraph(adj, center, 1).nodes.size
    n2 = khop_subgraph(adj, center, 2).nodes.size

    bfs_agrees = True
    for k in range(50):
        radj, rng = random_adjacency(3000 + k)
        c = int(rng.integers(radj.n_spots))
        hops = int(rng.integers(1, 4))
        sub = khop_subgraph(radj, c, hops)
        dist = bfs_distances(radj.n_spots, radj.edges, c)
        want = sorted(i for i, d in enumerate(dist) if 0 <= d <= hops)
        bfs_agrees &= sorted(int(v) for v in sub.nodes) == want
        bfs_agrees &= all(dist[int(v)] == int(h)
                          for v, h in zip(sub.nodes, sub.hops))

    ok = n1 == 7 and n2 == 19 and bfs_agrees
    verdict(10, "neighborhood geometry", ok,
            f"hex 1-hop {n1} nodes, 2-hop {n2} nodes, "
            f"bfs oracle agrees {bfs_agrees}")
