"""IDX ingestion, initialization, forward/backward, SGD, and populations."""

import dataclasses
import gzip
import hashlib
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest

from neurotopo import datagen
from neurotopo.datagen import synthetic_digits, write_idx, write_synthetic_benchmark
from neurotopo.errors import FormatError, StructuralError
from neurotopo.model import load_model
from neurotopo.trainer import (
    Dataset,
    TrainingConfig,
    evaluate,
    forward,
    generate_population,
    init_network,
    load_idx,
    load_manifest,
    loss_and_gradients,
    train,
)


def idx_pair(tmp_path, images, labels, stem="set"):
    ip = tmp_path / f"{stem}-images-idx3-ubyte"
    lp = tmp_path / f"{stem}-labels-idx1-ubyte"
    write_idx(images, labels, ip, lp)
    return ip, lp


class TestLoadIdx:
    def test_single_saturated_image(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.full((1, 28, 28), 255, dtype=np.uint8), np.array([7], dtype=np.uint8))
        ds = load_idx(ip, lp)
        assert len(ds) == 1
        assert ds.images.dtype == np.uint8 and np.all(ds.images == 255)
        assert ds.labels[0] == 7

    def test_label_out_of_range(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.array([12], dtype=np.uint8))
        with pytest.raises(FormatError, match="label 12 out of range"):
            load_idx(ip, lp)

    def test_bad_images_magic(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.array([0], dtype=np.uint8))
        data = bytearray(ip.read_bytes())
        data[3] = 0x99
        ip.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_idx(ip, lp)

    def test_bad_labels_magic(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.array([0], dtype=np.uint8))
        data = bytearray(lp.read_bytes())
        data[3] = 0x99
        lp.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        ip.write_bytes(ip.read_bytes()[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, _ = idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        lp = tmp_path / "labels-bad"
        lp.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes(3))
        with pytest.raises(FormatError, match="3 labels for 2 images"):
            load_idx(ip, lp)

    def test_wrong_dimensions(self, tmp_path):
        ip = tmp_path / "img"
        ip.write_bytes(struct.pack(">IIII", 0x00000803, 1, 14, 14) + bytes(14 * 14))
        lp = tmp_path / "lab"
        lp.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
        with pytest.raises(FormatError, match="28x28"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("compress", [False, True])
    def test_header_claiming_more_images_than_the_file_holds(self, tmp_path, compress):
        # 0xFFFFFFFF images of 28x28 claimed, one image present: only what exists is read
        data = struct.pack(">IIII", 0x00000803, 0xFFFFFFFF, 28, 28) + bytes(784)
        ip = tmp_path / ("img.gz" if compress else "img")
        ip.write_bytes(gzip.compress(data) if compress else data)
        lp = tmp_path / "lab"
        lp.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
        with pytest.raises(FormatError, match=r"img(\.gz)?: truncated while reading pixel data \(offset 800\)"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("which, what", [("images", "pixel data"), ("labels", "label data")])
    def test_trailing_bytes(self, tmp_path, which, what):
        ip, lp = idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        path = ip if which == "images" else lp
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match=f"{path.name}: trailing bytes after {what}"):
            load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        lp.write_bytes(lp.read_bytes()[:6])
        with pytest.raises(FormatError, match=r"truncated while reading header \(offset 6\)"):
            load_idx(ip, lp)

    def test_gzip_transparent(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((3, 28, 28), dtype=np.uint8), np.array([0, 1, 2], dtype=np.uint8))
        gip = tmp_path / "imgs.gz"
        gip.write_bytes(gzip.compress(ip.read_bytes()))
        glp = tmp_path / "labs.gz"
        glp.write_bytes(gzip.compress(lp.read_bytes()))
        ds = load_idx(gip, glp)
        assert len(ds) == 3

    @pytest.mark.parametrize(
        "damage",
        [lambda gz: gz[:-12], lambda gz: gz[:10] + bytes(b ^ 0xFF for b in gz[10:40]) + gz[40:],
         lambda gz: b"no gzip here"],
        ids=["truncated", "corrupt", "not gzip"],
    )
    def test_bad_gzip_names_the_file(self, tmp_path, damage):
        ip, lp = idx_pair(tmp_path, np.zeros((3, 28, 28), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
        gip = tmp_path / "imgs.gz"
        gip.write_bytes(damage(gzip.compress(ip.read_bytes())))
        with pytest.raises(FormatError, match=r"imgs\.gz: not a valid gzip file"):
            load_idx(gip, lp)

    def test_synthetic_corpus_round_trip(self, tmp_path):
        images, labels = synthetic_digits(50, seed=3)
        ip, lp = idx_pair(tmp_path, images, labels)
        ds = load_idx(ip, lp)
        assert len(ds) == 50
        assert ds.images.shape == (50, 784)
        assert set(np.unique(ds.labels)) <= set(range(10))


class TestSyntheticDigits:
    def test_negative_seed_rejected_before_anything_is_written(self, tmp_path):
        with pytest.raises(StructuralError, match="got count 3 and seed -1$"):
            synthetic_digits(3, -1)
        with pytest.raises(StructuralError, match="seed -2$"):
            write_synthetic_benchmark(tmp_path / "data", train_count=4, test_count=2, seed=-2)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("seed", [0, 3, 1234])
    def test_blocks_match_one_image_at_a_time(self, seed):
        b = datagen._BLOCK
        for count in (1, b - 1, b, b + 1, 2 * b + 7):
            images, labels = synthetic_digits(count, seed)
            want_images, want_labels = oracles.synthetic_digits_naive(count, seed, datagen._GLYPHS)
            assert images.dtype == np.uint8 and images.shape == (count, 28, 28)
            assert images.tobytes() == want_images.tobytes()
            assert labels.tobytes() == want_labels.tobytes()

    def test_walkthrough_corpus_bytes_pinned(self, tmp_path):
        # the README walkthrough's corpus; any change to draws or rendering moves these
        paths = write_synthetic_benchmark(tmp_path, 5000, 1000, seed=1234)
        digests = {name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for name, p in paths.items()}
        assert digests == {
            "train_images": "0b8018acf225d1ec720fef12ca09d8ab9937c9f3516a747f204835cef0717c72",
            "train_labels": "840d438e0bb3bf86b9734fc32f91ad1d3bc79d2d20f3e273d645ce468c7f66fa",
            "test_images": "f0ffdd7f35ced2115204f31c1acf64c1a96035f06f11ea879c73fe30c89c0664",
            "test_labels": "fd3ac1fcfee22e028c74cb465e43a39e40bc1c3d8616dfaa8ac4c31b431329c6",
        }

    def test_peak_memory_stays_near_the_output(self):
        # float64 canvases for all 20,000 images would take 144 MB; the uint8 output takes 15.7 MB
        count = 20_000
        tracemalloc.start()
        try:
            images, labels = synthetic_digits(count, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes + labels.nbytes + 16 * 2**20


class TestDataset:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16])
    def test_pixels_other_than_uint8_refused(self, dtype):
        with pytest.raises(StructuralError, match="images must be uint8 pixels"):
            Dataset(images=np.zeros((2, 4), dtype=dtype), labels=np.zeros(2, dtype=np.int64))

    def test_batches_scaled_as_load_idx_scaled_them(self):
        # dividing each uint8 batch by 255 gives the bits of scaling the whole set up front
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(90, 12), dtype=np.uint8)
        labels = rng.integers(0, 10, size=90)
        config = TrainingConfig(arch=(12, 7, 10), learning_rate=0.05, batch_size=20, epochs=2, seed=4)
        net = init_network(config.arch, seed=6)
        trained, history = train(net, Dataset(images=pixels, labels=labels), config)
        scaled = pixels.astype(np.float64)
        scaled /= 255.0
        weights = list(net.weights)
        order_rng = np.random.default_rng(config.seed)
        for _ in range(config.epochs):
            perm = order_rng.permutation(90)
            for start in range(0, 90, 20):
                idx = perm[start : start + 20]
                _, grads = loss_and_gradients(type(net)(arch=net.arch, weights=weights), scaled[idx], labels[idx])
                weights = [w - config.learning_rate * g for w, g in zip(weights, grads)]
        for got, want in zip(trained.weights, weights):
            assert got.tobytes() == want.tobytes()
        want_acc = np.mean(np.argmax(forward(trained, scaled), axis=1) == labels)
        assert evaluate(trained, Dataset(images=pixels, labels=labels)) == want_acc

    def test_training_peak_memory_holds_no_float_copy_of_the_set(self):
        # 20,000 uint8 images take 15 MB; one float64 copy of them would take 120 MB
        rng = np.random.default_rng(0)
        train_set = Dataset(images=rng.integers(0, 256, size=(20_000, 784), dtype=np.uint8),
                            labels=rng.integers(0, 10, size=20_000))
        test_set = Dataset(images=rng.integers(0, 256, size=(500, 784), dtype=np.uint8),
                           labels=rng.integers(0, 10, size=500))
        config = TrainingConfig(arch=(784, 8, 10), epochs=1, seed=0)
        tracemalloc.start()
        try:
            net, _ = train(init_network(config.arch, seed=0), train_set, config)
            evaluate(net, test_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestInitNetwork:
    def test_same_seed_identical(self):
        a = init_network((784, 200, 100, 10), seed=42)
        b = init_network((784, 200, 100, 10), seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_uniform_statistics(self):
        net = init_network((100, 500, 100, 10), seed=0)
        samples = np.concatenate([w.reshape(-1) for w in net.weights])
        assert samples.size > 100_000
        assert abs(samples.mean()) < 0.01
        assert samples.min() >= -0.9 and samples.max() <= 0.9

    def test_paper_parameter_count(self):
        net = init_network((784, 200, 100, 10), seed=0)
        assert sum(w.size for w in net.weights) == 177800


class TestForward:
    def test_zero_weights_uniform(self):
        net = init_network((5, 4, 10), seed=0)
        zero = type(net)(arch=net.arch, weights=tuple(np.zeros_like(w) for w in net.weights), meta=net.meta)
        probs = forward(zero, np.random.default_rng(0).uniform(size=(3, 5)))
        np.testing.assert_allclose(probs, 0.1, atol=1e-12)

    def test_one_hot_wiring(self):
        w = np.zeros((4, 10))
        w[2, 6] = 5.0
        net = type(init_network((4, 10), 0))(arch=(4, 10), weights=(w,))
        x = np.zeros((1, 4))
        x[0, 2] = 1.0
        assert int(np.argmax(forward(net, x))) == 6

    def test_rows_sum_to_one(self):
        net = init_network((20, 12, 10), seed=1)
        probs = forward(net, np.random.default_rng(1).uniform(size=(40, 20)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)


def finite_difference_gradients(net, x, labels, h=1e-5):
    grads = []
    for a, w in enumerate(net.weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp = [m.copy() for m in net.weights]
            wm = [m.copy() for m in net.weights]
            wp[a][idx] += h
            wm[a][idx] -= h
            netp = type(net)(arch=net.arch, weights=tuple(wp), meta=net.meta)
            netm = type(net)(arch=net.arch, weights=tuple(wm), meta=net.meta)
            lp, _ = loss_and_gradients(netp, x, labels)
            lm, _ = loss_and_gradients(netm, x, labels)
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        net = init_network((4, 3, 2), seed=1, half_range=0.5)
        x = rng.uniform(size=(6, 4))
        labels = rng.integers(0, 2, size=6)
        _, analytic = loss_and_gradients(net, x, labels)
        numeric = finite_difference_gradients(net, x, labels)
        for g, f in zip(analytic, numeric):
            rel = np.abs(g - f) / np.maximum(np.abs(g) + np.abs(f), 1e-8)
            assert rel.max() < 1e-4

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        net = init_network((5, 4, 10), seed=3)
        loss, _ = loss_and_gradients(net, rng.uniform(size=(8, 5)), rng.integers(0, 10, size=8))
        assert loss >= 0.0


class TestTrain:
    def separable_dataset(self, n=200, seed=0):
        # ten well-separated prototype directions in a 20-dim pixel space
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, size=n)
        prototypes = np.zeros((10, 20))
        for c in range(10):
            prototypes[c, 2 * c : 2 * c + 2] = 1.0
        pixels = prototypes[labels] * 0.9 + rng.uniform(0, 0.05, size=(n, 20))
        return Dataset(images=np.round(pixels * 255.0).astype(np.uint8), labels=labels)

    def test_learns_separable_data(self):
        ds = self.separable_dataset()
        config = TrainingConfig(arch=(20, 16, 10), learning_rate=0.5, batch_size=20, epochs=50, seed=0)
        net = init_network(config.arch, seed=4, half_range=0.5)
        trained, history = train(net, ds, config)
        assert history[-1]["train_acc"] >= 0.95

    def test_zero_learning_rate_is_identity(self):
        ds = self.separable_dataset(n=40)
        with pytest.raises(StructuralError):
            TrainingConfig(arch=(20, 8, 10), learning_rate=0.0)
        # smallest representable positive rate leaves weights essentially fixed;
        # the exact-identity check uses a manual zero-rate step instead
        config = TrainingConfig(arch=(20, 8, 10), learning_rate=1e-300, batch_size=10, epochs=2, seed=0)
        net = init_network(config.arch, seed=0)
        trained, _ = train(net, ds, config)
        for a, b in zip(net.weights, trained.weights):
            np.testing.assert_array_equal(a, b)

    def test_single_sample_step_matches_analytic_update(self):
        # hand-derived single-sample softmax regression update on a 3-5 net
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(1, 3), dtype=np.uint8)
        x = pixels / 255.0
        label = np.array([2])
        w = rng.uniform(-0.5, 0.5, size=(3, 5))
        net = type(init_network((3, 5), 0))(arch=(3, 5), weights=(w.copy(),))
        lr = 0.1
        config = TrainingConfig(arch=(3, 5), learning_rate=lr, batch_size=1, epochs=1, seed=0)
        trained, _ = train(net, Dataset(images=pixels, labels=label), config)
        z = x @ w
        p = np.exp(z - z.max())
        p /= p.sum()
        delta = p.copy()
        delta[0, 2] -= 1.0
        expected = w - lr * (x.T @ delta)
        np.testing.assert_allclose(trained.weights[0], expected, atol=1e-10)

    def test_history_and_epoch_bookkeeping(self):
        ds = self.separable_dataset(n=60)
        config = TrainingConfig(arch=(20, 8, 10), learning_rate=0.1, batch_size=30, epochs=3, seed=1)
        net = init_network(config.arch, seed=1)
        trained, history = train(net, ds, config)
        assert len(history) == 3
        assert trained.meta["epochs"] == 3


class TestEvaluate:
    def test_chance_level_for_random_net(self):
        rng = np.random.default_rng(5)
        ds = Dataset(images=rng.integers(0, 256, size=(1000, 10), dtype=np.uint8), labels=np.tile(np.arange(10), 100))
        net = init_network((10, 8, 10), seed=9)
        acc = evaluate(net, ds)
        assert abs(acc - 0.10) < 0.03

    def test_constant_predictor_on_matching_labels(self):
        w = np.zeros((4, 10))
        w[:, 0] = 1.0
        net = type(init_network((4, 10), 0))(arch=(4, 10), weights=(w,))
        pixels = np.random.default_rng(0).integers(1, 256, size=(50, 4), dtype=np.uint8)
        ds = Dataset(images=pixels, labels=np.zeros(50, dtype=np.int64))
        assert evaluate(net, ds) == 1.0


class TestPopulation:
    def small_sets(self):
        images, labels = synthetic_digits(80, seed=11)
        train_set = Dataset(images=images[:60].reshape(60, -1), labels=labels[:60])
        test_set = Dataset(images=images[60:].reshape(20, -1), labels=labels[60:])
        return train_set, test_set

    def config(self):
        return TrainingConfig(arch=(784, 6, 4, 10), learning_rate=0.01, batch_size=20, epochs=1, seed=0)

    def test_population_and_manifest(self, tmp_path):
        train_set, test_set = self.small_sets()
        manifest = generate_population(train_set, test_set, self.config(), [0, 1, 2], tmp_path, dataset_id="toy")
        assert len(manifest) == 3
        assert all(e["status"] == "trained" for e in manifest)
        listed = json.loads((tmp_path / "manifest.json").read_text())
        assert [e["seed"] for e in listed] == [0, 1, 2]
        net = load_model(tmp_path / manifest[0]["model_path"])
        assert net.meta["dataset_id"] == "toy"

    def test_duplicate_seeds_rejected(self, tmp_path):
        train_set, test_set = self.small_sets()
        with pytest.raises(StructuralError, match="distinct"):
            generate_population(train_set, test_set, self.config(), [1, 1], tmp_path)

    def test_negative_weight_seed_rejected(self, tmp_path):
        train_set, test_set = self.small_sets()
        with pytest.raises(StructuralError, match="weight seeds must be >= 0, got -1"):
            generate_population(train_set, test_set, self.config(), [-1, 0], tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_negative_data_seed_rejected(self):
        with pytest.raises(StructuralError, match="data seed must be >= 0, got -3"):
            TrainingConfig(arch=(784, 6, 4, 10), seed=-3)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        train_set, test_set = self.small_sets()
        with pytest.raises(StructuralError, match=f"workers must be >= 1, got {workers}"):
            generate_population(train_set, test_set, self.config(), [0], tmp_path / "o", workers=workers)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("count", [0, -1, -59, 61])
    def test_subset_outside_one_to_len_rejected(self, count):
        train_set, _ = self.small_sets()
        with pytest.raises(StructuralError, match=f"cannot take {count} samples from 60"):
            train_set.subset(count)
        assert len(train_set.subset(60)) == 60

    def test_resume_skips_existing(self, tmp_path):
        train_set, test_set = self.small_sets()
        generate_population(train_set, test_set, self.config(), [0, 1, 2], tmp_path)
        (tmp_path / "model_seed1.json").unlink()
        manifest = generate_population(train_set, test_set, self.config(), [0, 1, 2], tmp_path)
        statuses = {e["seed"]: e["status"] for e in manifest}
        assert statuses == {0: "cached", 1: "trained", 2: "cached"}

    @pytest.mark.parametrize(
        "field, change, dataset_id",
        [("arch", {"arch": (784, 5, 4, 10)}, "toy"), ("meta.epochs", {"epochs": 2}, "toy"),
         ("meta.dataset_id", {}, "other")],
    )
    def test_resume_refuses_another_configuration(self, tmp_path, field, change, dataset_id):
        train_set, test_set = self.small_sets()
        generate_population(train_set, test_set, self.config(), [0], tmp_path, dataset_id="toy")
        before = (tmp_path / "model_seed0.json").read_bytes()
        config = dataclasses.replace(self.config(), **change)
        with pytest.raises(StructuralError, match=rf"model_seed0\.json: cached model has {field} "):
            generate_population(train_set, test_set, config, [0, 1], tmp_path, dataset_id=dataset_id)
        assert (tmp_path / "model_seed0.json").read_bytes() == before
        assert not (tmp_path / "model_seed1.json").exists()

    def test_resume_refuses_a_malformed_model(self, tmp_path):
        # writes are atomic, so a file that does not load was put there by hand: keep it
        train_set, test_set = self.small_sets()
        (tmp_path / "model_seed0.json").write_text('{"notes": "kept by hand"}\n')
        with pytest.raises(FormatError, match=r"model_seed0\.json: "):
            generate_population(train_set, test_set, self.config(), [0, 1], tmp_path)
        assert (tmp_path / "model_seed0.json").read_text() == '{"notes": "kept by hand"}\n'
        assert not (tmp_path / "model_seed1.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_network_recorded_by_both_schedules(self, tmp_path, capfd):
        # this learning rate makes seed 1's loss overflow and leaves seeds 0 and 2 finite;
        # the manifest entry is the only report: a numpy warning raises under the mark
        # (forked workers inherit the filter) and a worker's stderr would reach capfd
        train_set, test_set = self.small_sets()
        config = dataclasses.replace(self.config(), learning_rate=1e100)
        seq = generate_population(train_set, test_set, config, [0, 1, 2], tmp_path / "seq", workers=1)
        assert capfd.readouterr().err == ""
        par = generate_population(train_set, test_set, config, [0, 1, 2], tmp_path / "par", workers=2)
        assert capfd.readouterr().err == ""
        assert seq == par
        assert [e["status"] for e in seq] == ["trained", "failed: loss diverged at epoch 0", "trained"]
        assert seq[1] == {"seed": 1, "model_path": None, "train_acc": None, "test_acc": None,
                          "status": "failed: loss diverged at epoch 0"}
        assert not (tmp_path / "seq" / "model_seed1.json").exists()

    def test_manifest_with_repeated_seed_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[{"seed": 4, "test_acc": 0.5}, {"seed": 7, "test_acc": null}, '
                        '{"seed": 4, "test_acc": 0.25}]')
        with pytest.raises(FormatError, match="manifest.json: seed 4 appears more than once"):
            load_manifest(path)

    def test_manifest_with_negative_seed_rejected(self, tmp_path):
        # generate_population refuses negative weight seeds, so no manifest holds one
        path = tmp_path / "manifest.json"
        path.write_text('[{"seed": -3, "test_acc": 0.5}]')
        with pytest.raises(FormatError, match="manifest.json: seed -3 is negative"):
            load_manifest(path)

    @pytest.mark.parametrize("acc", ["-2", "1.5", "7"])
    def test_manifest_with_accuracy_outside_unit_interval_rejected(self, tmp_path, acc):
        path = tmp_path / "manifest.json"
        path.write_text('[{"seed": 0, "test_acc": 0.5}, {"seed": 1, "test_acc": %s}, '
                        '{"seed": 2, "test_acc": null}]' % acc)
        with pytest.raises(FormatError, match=rf"manifest.json: seed 1: test_acc {acc} is outside \[0, 1\]"):
            load_manifest(path)

    def test_manifest_accuracy_bounds_accepted(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[{"seed": 0, "test_acc": 0}, {"seed": 1, "test_acc": 1.0}, {"seed": 2, "test_acc": null}]')
        assert [e["test_acc"] for e in load_manifest(path)] == [0, 1.0, None]

    def test_bit_reproducible_across_runs(self, tmp_path):
        train_set, test_set = self.small_sets()
        generate_population(train_set, test_set, self.config(), [5], tmp_path / "a")
        generate_population(train_set, test_set, self.config(), [5], tmp_path / "b")
        a = (tmp_path / "a" / "model_seed5.json").read_bytes()
        b = (tmp_path / "b" / "model_seed5.json").read_bytes()
        assert a == b

    def test_parallel_matches_sequential(self, tmp_path):
        train_set, test_set = self.small_sets()
        generate_population(train_set, test_set, self.config(), [0, 1], tmp_path / "seq", workers=1)
        generate_population(train_set, test_set, self.config(), [0, 1], tmp_path / "par", workers=2)
        for seed in (0, 1):
            sa = (tmp_path / "seq" / f"model_seed{seed}.json").read_bytes()
            pa = (tmp_path / "par" / f"model_seed{seed}.json").read_bytes()
            assert sa == pa
