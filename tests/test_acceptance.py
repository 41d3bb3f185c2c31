"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criteria 4 and 9 use the real digit benchmark when
NEUROTOPO_MNIST_DIR points at the official IDX files; otherwise the identical
pipeline runs on the bundled surrogate corpus (the pass line says which).
"""

import json
import os
import time

import numpy as np
import pytest

import oracles
from conftest import ones_graph, random_layered_net
from neurotopo.bon import elbow_scan, jsd, kmeans, load_vocabulary, save_vocabulary
from neurotopo.bon import cross_benchmark_jsd
from neurotopo.centrality import (
    avg_neighbor_strength,
    bipartite_clustering,
    current_flow_closeness,
    harmonic,
    max_clique_count,
    measure_all,
    second_order,
    strength,
    subgraph_centrality,
)
from neurotopo.cli import main
from neurotopo.datagen import synthetic_digits, write_idx, write_synthetic_benchmark
from neurotopo.descriptors import (
    build_feature_matrix,
    feature_matrix_from_values,
    layer_mean,
    pearson_matrix,
    redundancy_filter,
)
from neurotopo.errors import NumericalError
from neurotopo.model import (
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    build_graph,
    largest_component,
    load_model,
    save_model,
    threshold_view,
)
from neurotopo.trainer import (
    Dataset,
    TrainingConfig,
    forward,
    generate_population,
    init_network,
    load_idx,
    loss_and_gradients,
    train,
)

DESK_ARCH = (784, 32, 16, 10)
DESK_COUNT = 60
DESK_DATA_SEED = 100
DESK_WEIGHT_SEEDS = list(range(DESK_COUNT))


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def mnist_dir():
    """Official benchmark directory, when the environment provides one."""
    path = os.environ.get("NEUROTOPO_MNIST_DIR", "")
    if not path:
        return None
    for base in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
        if not (os.path.exists(os.path.join(path, base))
                or os.path.exists(os.path.join(path, base + ".gz"))):
            return None
    return path


def _find(path, base):
    for candidate in (base, base + ".gz"):
        full = os.path.join(path, candidate)
        if os.path.exists(full):
            return full
    raise FileNotFoundError(base)


@pytest.fixture(scope="module")
def desk_population(tmp_path_factory):
    """60 trained networks on a 5000/1000 digit subset, plus their source tag."""
    data = mnist_dir()
    if data is not None:
        source = "MNIST"
        train_set = load_idx(_find(data, "train-images-idx3-ubyte"),
                             _find(data, "train-labels-idx1-ubyte")).subset(5000)
        test_set = load_idx(_find(data, "t10k-images-idx3-ubyte"),
                            _find(data, "t10k-labels-idx1-ubyte")).subset(1000)
    else:
        source = "surrogate digits (MNIST unavailable in this environment)"
        corpus = tmp_path_factory.mktemp("corpus")
        paths = write_synthetic_benchmark(corpus, train_count=5000, test_count=1000, seed=1234)
        train_set = load_idx(paths["train_images"], paths["train_labels"])
        test_set = load_idx(paths["test_images"], paths["test_labels"])
    out = tmp_path_factory.mktemp("desk_models")
    config = TrainingConfig(
        arch=DESK_ARCH, learning_rate=0.01, batch_size=100, epochs=5, seed=DESK_DATA_SEED
    )
    workers = min(4, os.cpu_count() or 1)
    t0 = time.monotonic()
    manifest = generate_population(
        train_set, test_set, config, DESK_WEIGHT_SEEDS, out, dataset_id=source, workers=workers
    )
    train_seconds = time.monotonic() - t0
    assert all(e["status"] in ("trained", "cached") for e in manifest)
    nets = [load_model(os.path.join(out, e["model_path"])) for e in manifest]
    return {
        "nets": nets,
        "manifest": manifest,
        "source": source,
        "dir": out,
        "train_seconds": train_seconds,
    }


def loo_linear_accuracy(points, labels):
    """Leave-one-out accuracy of a two-class LDA on 2-D points."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    hits = 0
    for i in range(len(points)):
        keep = np.arange(len(points)) != i
        x, y = points[keep], labels[keep]
        mu0, mu1 = x[y == 0].mean(axis=0), x[y == 1].mean(axis=0)
        centered = np.vstack([x[y == 0] - mu0, x[y == 1] - mu1])
        cov = centered.T @ centered / len(x) + 1e-9 * np.eye(2)
        w = np.linalg.solve(cov, mu1 - mu0)
        threshold = w @ (mu0 + mu1) / 2.0
        pred = int(points[i] @ w > threshold)
        hits += int(pred == labels[i])
    return hits / len(points)


class TestCriterion1CentralityOracles:
    def test_oracle_suite_200_graphs(self):
        t0 = time.monotonic()
        checked = singular = 0
        for seed in range(200):
            net = random_layered_net(seed)
            g = build_graph(net)
            vo = threshold_view(g, VIEW_ORIGINAL)
            vp = threshold_view(g, VIEW_POSITIVE)
            wo, mo, _ = oracles.build_graph_dense(net)
            wp, mp = oracles.positive_part(wo, mo)

            np.testing.assert_array_equal(strength(vo), oracles.strength_naive(wo))
            a = avg_neighbor_strength(vo)
            b = oracles.avg_neighbor_strength_naive(wo)
            assert np.array_equal(a, b, equal_nan=True)
            np.testing.assert_array_equal(max_clique_count(vp), oracles.max_clique_count_naive(mp))
            np.testing.assert_array_equal(bipartite_clustering(vp), oracles.bipartite_clustering_naive(mp))
            np.testing.assert_allclose(harmonic(vp), oracles.harmonic_naive(wp, mp), atol=1e-9)
            np.testing.assert_allclose(subgraph_centrality(vp), oracles.subgraph_series_naive(mp), atol=1e-8)
            # so and cfc: the oracle on the largest component, NaN off it
            keep = oracles.largest_component_naive(mo)
            comp = np.ix_(keep, keep)
            lap = np.diag(wo[comp].sum(axis=1)) - wo[comp]
            if np.linalg.matrix_rank(lap + 1.0 / len(keep)) < len(keep):
                with pytest.raises(NumericalError, match="^cfc: "):
                    current_flow_closeness(vo)
                singular += 1
            else:
                want = np.full(vo.node_count, np.nan)
                if len(keep) >= 2:
                    want[keep] = oracles.current_flow_closeness_naive(wo[comp], mo[comp])
                np.testing.assert_allclose(current_flow_closeness(vo), want, atol=1e-9)
            keep = oracles.largest_component_naive(mp)
            want = np.full(vp.node_count, np.nan)
            if len(keep) >= 2:
                want[keep] = oracles.second_order_naive(mp[np.ix_(keep, keep)])
            np.testing.assert_allclose(second_order(vp), want, atol=1e-6)
            checked += 1

        # Monte-Carlo cross-check of so on the first 5 small connected components
        mc_done = 0
        for seed in range(200):
            if mc_done >= 5:
                break
            keep, comp = largest_component(threshold_view(build_graph(random_layered_net(seed)), VIEW_POSITIVE))
            if not 3 <= keep.size <= 10:
                continue
            so = second_order(comp)
            node = int(np.argmax(so))
            mask = comp.block(slice(None), slice(None), mask=True)
            sim = oracles.second_order_montecarlo(mask, node, total_steps=1_000_000, seed=seed)
            assert abs(so[node] - sim) <= 0.05 * max(sim, 1e-9), (seed, so[node], sim)
            mc_done += 1
        assert mc_done == 5

        elapsed = time.monotonic() - t0
        report(
            1,
            elapsed < 120.0,
            f"8 measures vs oracles on {checked} seeded random layered graphs ({singular} with a singular "
            f"L + J/n refused), {mc_done} Monte-Carlo so checks, {elapsed:.1f}s (< 120s)",
        )


class TestCriterion2ClosedForms:
    def test_spot_checks(self):
        k2 = ones_graph((1, 1))
        sg = subgraph_centrality(threshold_view(k2, VIEW_POSITIVE))
        ok = bool(np.all(np.abs(sg - np.cosh(1.0)) <= 1e-9))

        k22 = ones_graph((2, 2))
        so = second_order(threshold_view(k22, VIEW_POSITIVE))
        ok &= bool(np.all(np.abs(so - np.sqrt(8.0)) <= 1e-6))

        p3 = ones_graph((1, 1, 1))
        cfc = current_flow_closeness(threshold_view(p3, VIEW_ORIGINAL))
        ok &= abs(cfc[0] - 2.0 / 3.0) <= 1e-9 and abs(cfc[2] - 2.0 / 3.0) <= 1e-9

        bc = bipartite_clustering(threshold_view(k22, VIEW_POSITIVE))
        ok &= bool(np.all(bc == 1.0))

        p4 = ones_graph((1, 1, 1, 1))
        ok &= bipartite_clustering(threshold_view(p4, VIEW_POSITIVE))[0] == 0.5

        worst_rel = 0.0
        for seed in range(50):
            net = random_layered_net(seed)
            v = threshold_view(build_graph(net), VIEW_POSITIVE)
            sg_sum = subgraph_centrality(v).sum()
            _, mask = oracles.positive_part(*oracles.build_graph_dense(net)[:2])
            estrada = np.exp(np.linalg.eigvalsh(mask.astype(float))).sum()
            worst_rel = max(worst_rel, abs(sg_sum - estrada) / estrada)
        ok &= worst_rel <= 1e-6

        report(
            2,
            ok,
            f"K2 sg=cosh(1), K2,2 so=sqrt(8), P3 cfc(end)=2/3, K2,2 bc=1, P4 bc(end)=1/2, "
            f"Estrada identity worst rel err {worst_rel:.2e} over 50 graphs",
        )


class TestCriterion3Trainer:
    def test_trainer_correctness(self, tmp_path):
        rng = np.random.default_rng(0)
        net = init_network((4, 3, 2), seed=1, half_range=0.5)
        x = rng.uniform(size=(5, 4))
        labels = rng.integers(0, 2, size=5)
        _, analytic = loss_and_gradients(net, x, labels)
        worst = 0.0
        h = 1e-5
        for a, w in enumerate(net.weights):
            for idx in np.ndindex(w.shape):
                wp = [m.copy() for m in net.weights]
                wm = [m.copy() for m in net.weights]
                wp[a][idx] += h
                wm[a][idx] -= h
                lp, _ = loss_and_gradients(type(net)(net.arch, tuple(wp), net.meta), x, labels)
                lm, _ = loss_and_gradients(type(net)(net.arch, tuple(wm), net.meta), x, labels)
                fd = (lp - lm) / (2 * h)
                g = analytic[a][idx]
                worst = max(worst, abs(g - fd) / max(abs(g) + abs(fd), 1e-8))
        grad_ok = worst < 1e-4

        zero = type(net)(arch=(6, 5, 10), weights=(np.zeros((6, 5)), np.zeros((5, 10))))
        probs = forward(zero, rng.uniform(size=(4, 6)))
        uniform_ok = bool(np.all(np.abs(probs - 0.1) < 1e-12))

        images, labels10 = synthetic_digits(300, seed=5)
        ds = Dataset(images=images.reshape(300, -1), labels=labels10)
        config = TrainingConfig(arch=(784, 8, 10), learning_rate=0.01, batch_size=50, epochs=2, seed=3)
        paths = []
        for run in range(2):
            net_r = init_network(config.arch, seed=21)
            trained, _ = train(net_r, ds, config)
            path = tmp_path / f"run{run}.json"
            save_model(trained, path)
            paths.append(path.read_bytes())
        repro_ok = paths[0] == paths[1]

        report(
            3,
            grad_ok and uniform_ok and repro_ok,
            f"finite-diff rel err {worst:.2e} (<1e-4), zero-weight forward uniform, "
            f"same-seed training bit-identical",
        )


class TestCriterion4DeskStudy:
    def test_separability_of_layer_strengths(self, desk_population):
        t0 = time.monotonic()
        rows = []
        for net, entry in zip(desk_population["nets"], desk_population["manifest"]):
            table = measure_all(net, measures=("s",))
            rows.append(
                (
                    entry["seed"],
                    layer_mean(table, "s", 1).value,
                    layer_mean(table, "s", 2).value,
                    entry["test_acc"],
                )
            )
        rows.sort(key=lambda r: (r[3], r[0]))
        accs = [r[3] for r in rows]

        def group_loo(g):
            points = [(r[1], r[2]) for r in rows[:g] + rows[-g:]]
            return loo_linear_accuracy(points, [0] * g + [1] * g)

        # top/bottom deciles: 10% tails, the same fraction as the reference
        # study's best/worst 100 of 1000 networks
        decile = len(rows) // 10
        acc = group_loo(decile)
        acc_ten = group_loo(10)
        elapsed = time.monotonic() - t0 + desk_population["train_seconds"]
        report(
            4,
            acc >= 0.80 and elapsed < 1800.0,
            f"LOO linear separation of top vs bottom decile ({decile}+{decile} nets) "
            f"= {acc:.2f} (>= 0.80) on {desk_population['source']}; top/bottom-10 "
            f"reading gives {acc_ten:.2f} (reported); population acc spread "
            f"[{min(accs):.3f}, {max(accs):.3f}]; study took {elapsed:.0f}s (< 1800s)",
        )


class TestCriterion5BonStructure:
    def test_vocabulary_shape(self, desk_population):
        tables = [
            measure_all(net, measures=("s", "bc", "sg"))
            for net in desk_population["nets"]
        ]
        fm = build_feature_matrix(tables, ("s", "bc", "sg"))
        vocab = kmeans(fm, 6, restarts=100, seed=0, benchmark_id=desk_population["source"])
        strengths = vocab.centroids[:, 0] * vocab.normalizers[0]
        has_negative = bool(np.any(strengths < 0))
        has_positive = bool(np.any(strengths > 0))
        strictly_ordered = bool(np.all(np.diff(strengths) > 0))
        report(
            5,
            has_negative and has_positive and strictly_ordered,
            f"k=6 centroid strengths {np.round(strengths, 3).tolist()}: "
            f"negative and positive types present, strictly ordered",
        )


class TestCriterion6Clustering:
    def test_planted_clusters_and_elbow(self):
        sigma = 0.05
        separation = 10 * sigma
        true_centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
        # 150 points per cluster keep the sample means well inside the 5%
        # tolerance; with fewer points the sampling noise itself would exceed it
        recovered = 0
        elbow_hits = 0
        monotone = True
        for trial in range(50):
            rng = np.random.default_rng(trial)
            data = np.vstack(
                [c + rng.normal(scale=sigma, size=(150, 2)) for c in true_centers]
            )
            fm = feature_matrix_from_values(data, ("s", "bc"))
            vocab, traces = kmeans(fm, 3, restarts=5, seed=trial, return_traces=True)
            for trace in traces:
                if np.any(np.diff(np.array(trace)) > 1e-9):
                    monotone = False
            centers = vocab.centroids * vocab.normalizers
            cost = np.abs(centers[:, None, :] - true_centers[None, :, :]).sum(axis=2)
            order = []
            used = set()
            for i in range(3):
                j = int(np.argmin([cost[i, j] if j not in used else np.inf for j in range(3)]))
                used.add(j)
                order.append(j)
            err = max(
                np.linalg.norm(centers[i] - true_centers[j]) for i, j in enumerate(order)
            )
            if err <= 0.05 * separation:
                recovered += 1
            if elbow_scan(fm, 2, 8, restarts=5, seed=trial).k_star == 3:
                elbow_hits += 1
        report(
            6,
            recovered == 50 and elbow_hits >= 45 and monotone,
            f"center recovery {recovered}/50 (need 50), elbow k*=3 in {elbow_hits}/50 "
            f"(need >= 45), inertia monotone in every restart",
        )


class TestCriterion7JsdContract:
    def test_jsd_contract(self, rng):
        exact_ok = jsd([0.3, 0.7], [0.3, 0.7]) == 0.0 and jsd([1.0, 0.0], [0.0, 1.0]) == 1.0
        sym_ok = True
        bounds_ok = True
        for _ in range(10_000):
            k = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            a, b = jsd(p, q), jsd(q, p)
            sym_ok &= a == b
            bounds_ok &= 0.0 <= a <= 1.0

        from neurotopo.bon import Vocabulary
        from neurotopo.centrality import NeuronMeasures

        centroids = np.array([[-0.5, 0.2], [0.1, 0.9], [0.6, 0.4]])
        vocab = Vocabulary(centroids, ("s", "bc"), np.ones(2), 0.0, 3, 0)
        rng2 = np.random.default_rng(0)
        tables = [
            NeuronMeasures(
                network_id=f"n{i}",
                measures=("s", "bc"),
                layer=np.ones(20, dtype=np.int64),
                neuron=np.arange(20, dtype=np.int64),
                values=rng2.uniform(-1, 1, size=(20, 2)),
                test_acc=0.5,
            )
            for i in range(5)
        ]
        self_jsd = cross_benchmark_jsd(vocab, vocab, tables)
        self_ok = self_jsd.mean == 0.0 and self_jsd.std == 0.0

        report(
            7,
            exact_ok and sym_ok and bounds_ok and self_ok,
            "jsd(p,p)=0 and jsd([1,0],[0,1])=1 exactly; symmetry and [0,1] bounds on "
            "10^4 random pairs; self-vocabulary population JSD = 0",
        )


class TestCriterion8RedundancyFilter:
    def test_engineered_correlations(self):
        rng = np.random.default_rng(42)
        r = 20_000
        base = rng.normal(size=(r, 3))
        q, _ = np.linalg.qr(base - base.mean(axis=0))
        u0, v1, v2 = q[:, 0], q[:, 1], q[:, 2]
        s_col = u0
        so_col = 0.9 * u0 + np.sqrt(1 - 0.9**2) * v1
        mc_col = 0.85 * u0 + np.sqrt(1 - 0.85**2) * v2
        bc_col = rng.normal(size=r)
        values = np.column_stack([s_col, so_col, mc_col, bc_col])
        measures = ("s", "so", "mc", "bc")
        corr = pearson_matrix(values)
        corr_ok = abs(corr[0, 1] - 0.9) < 1e-9 and abs(corr[0, 2] - 0.85) < 1e-9
        kept = redundancy_filter(corr, measures, threshold=0.8)
        report(
            8,
            corr_ok and kept == ["s", "bc"],
            f"corr(s,so)={corr[0, 1]:.4f}, corr(s,mc)={corr[0, 2]:.4f}; filter kept {kept} "
            f"(s retained, so and mc dropped)",
        )


class TestCriterion9Formats:
    def test_round_trips_and_idx_rejection(self, tmp_path):
        net = init_network((20, 8, 6, 10), seed=3, dataset_id="fmt")
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(net, p1)
        save_model(load_model(p1), p2)
        model_ok = p1.read_bytes() == p2.read_bytes()

        fm = feature_matrix_from_values(np.random.default_rng(0).normal(size=(40, 2)), ("s", "bc"))
        vocab = kmeans(fm, 3, restarts=3, seed=1)
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        save_vocabulary(vocab, v1)
        save_vocabulary(load_vocabulary(v1), v2)
        vocab_ok = v1.read_bytes() == v2.read_bytes()

        rejections = 0
        for case in range(5):
            data_dir = tmp_path / f"bad{case}"
            data_dir.mkdir()
            write_synthetic_benchmark(data_dir, train_count=4, test_count=2, seed=case)
            images = data_dir / "train-images-idx3-ubyte"
            labels = data_dir / "train-labels-idx1-ubyte"
            if case == 0:  # corrupt images magic
                raw = bytearray(images.read_bytes())
                raw[3] = 0x99
                images.write_bytes(bytes(raw))
            elif case == 1:  # corrupt labels magic
                raw = bytearray(labels.read_bytes())
                raw[3] = 0x99
                labels.write_bytes(bytes(raw))
            elif case == 2:  # truncate pixel payload
                images.write_bytes(images.read_bytes()[:-7])
            elif case == 3:  # image/label count mismatch
                import struct as _struct

                labels.write_bytes(_struct.pack(">II", 0x00000801, 9) + bytes(9))
            elif case == 4:  # label out of class range
                raw = bytearray(labels.read_bytes())
                raw[8] = 12
                labels.write_bytes(bytes(raw))
            code = main(
                ["train", "--data", str(data_dir), "--count", "1", "--epochs", "1",
                 "--arch", "784,4,10", "--out", str(tmp_path / f"out{case}")]
            )
            rejections += int(code == 3)

        data = mnist_dir()
        if data is not None:
            test_set = load_idx(_find(data, "t10k-images-idx3-ubyte"),
                                _find(data, "t10k-labels-idx1-ubyte"))
            source = "official MNIST t10k"
        else:
            images, labels10 = synthetic_digits(10_000, seed=99)
            ip, lp = tmp_path / "t10k-images-idx3-ubyte", tmp_path / "t10k-labels-idx1-ubyte"
            write_idx(images, labels10, ip, lp)
            test_set = load_idx(ip, lp)
            source = "surrogate t10k-format file (MNIST unavailable in this environment)"
        parse_ok = len(test_set) == 10_000

        report(
            9,
            model_ok and vocab_ok and rejections == 5 and parse_ok,
            f"model and vocabulary JSON round-trip bit-exactly; 5/5 malformed IDX files "
            f"rejected with exit 3; parsed {source} to {len(test_set)} samples",
        )
