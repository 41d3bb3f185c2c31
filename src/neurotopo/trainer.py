"""Deterministic from-scratch MLP trainer and population generation.

Networks are bias-free fully connected stacks with ReLU hidden layers and a
softmax output, trained by plain SGD on categorical cross-entropy.  All
arithmetic is float64 and every random draw comes from a seeded PCG64
generator, so a (weight seed, data seed, config) triple reproduces a trained
network bit-exactly.  Weight seeds vary across a population while the data
seed (batch order) is shared, keeping populations comparable.
"""

import gzip
import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .artifacts import read_json, write_json
from .errors import FormatError, NumericalError, StructuralError
from .model import LayeredNetwork, load_model, save_model

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CLASS_COUNT = 10


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one training run.

    ``seed`` drives the data order (shared across a population);
    per-network weight seeds are supplied separately.
    """

    arch: tuple = (784, 200, 100, 10)
    learning_rate: float = 0.01
    batch_size: int = 100
    epochs: int = 30
    init_half_range: float = 0.9
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "arch", tuple(int(x) for x in self.arch))
        for name in ("learning_rate", "init_half_range"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise StructuralError(f"{name} must be finite and positive, got {value}")
        if self.batch_size < 1:
            raise StructuralError("batch_size must be >= 1")
        if self.epochs < 0:
            raise StructuralError("epochs must be >= 0")


@dataclass(frozen=True)
class Dataset:
    """Flattened grayscale images in [0, 1] with integer class labels."""

    images: np.ndarray  # (N, pixels) float64
    labels: np.ndarray  # (N,) int64 in [0, 9]

    def __post_init__(self):
        images = np.ascontiguousarray(self.images, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if images.ndim != 2 or labels.ndim != 1 or images.shape[0] != labels.shape[0]:
            raise StructuralError("images and labels must agree on sample count")
        if images.size and (images.min() < 0.0 or images.max() > 1.0):
            raise StructuralError("pixel values must lie in [0, 1]")
        if labels.size and (labels.min() < 0 or labels.max() >= CLASS_COUNT):
            raise StructuralError(f"labels must lie in [0, {CLASS_COUNT - 1}]")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.images.shape[0]

    def subset(self, count):
        if not 1 <= count <= len(self):
            raise StructuralError(f"cannot take {count} samples from {len(self)}")
        return Dataset(self.images[:count], self.labels[:count])


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count, path, what):
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"{path}: truncated while reading {what} (offset {fh.tell()})")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (plain or .gz) as a Dataset.

    Pixels are scaled to [0, 1] by dividing by 255.  Every structural defect
    (magic, dimensions, truncation, label range, count mismatch) is a
    FormatError naming the file and offset.
    """
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad images magic 0x{magic:08x} (offset 0)")
        if rows != 28 or cols != 28:
            raise FormatError(f"{images_path}: expected 28x28 images, got {rows}x{cols}")
        raw = _read_exact(fh, count * rows * cols, images_path, "pixel data")
        if fh.read(1):
            raise FormatError(f"{images_path}: trailing bytes after pixel data")
    with _open_maybe_gzip(labels_path) as fh:
        magic, lcount = struct.unpack(">II", _read_exact(fh, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad labels magic 0x{magic:08x} (offset 0)")
        if lcount != count:
            raise FormatError(f"{labels_path}: {lcount} labels for {count} images")
        labels = np.frombuffer(_read_exact(fh, lcount, labels_path, "label data"), dtype=np.uint8)
        if fh.read(1):
            raise FormatError(f"{labels_path}: trailing bytes after label data")
    if labels.size and labels.max() >= CLASS_COUNT:
        bad = int(np.argmax(labels >= CLASS_COUNT))
        raise FormatError(f"{labels_path}: label {int(labels[bad])} out of range at index {bad}")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64)
    images /= 255.0
    return Dataset(images=images, labels=labels.astype(np.int64))


def init_network(arch, seed, half_range=0.9, dataset_id="") -> LayeredNetwork:
    """Fresh network with i.i.d. uniform weights on [-half_range, +half_range]."""
    rng = np.random.default_rng(seed)
    weights = tuple(
        rng.uniform(-half_range, half_range, size=(arch[a], arch[a + 1]))
        for a in range(len(arch) - 1)
    )
    meta = {
        "seed": int(seed),
        "dataset_id": dataset_id,
        "epochs": 0,
        "train_acc": 0.0,
        "test_acc": 0.0,
    }
    return LayeredNetwork(arch=tuple(arch), weights=weights, meta=meta)


def _forward_trace(weights, x):
    """Activations after every layer; hidden layers ReLU, output linear."""
    acts = [x]
    h = x
    for a, w in enumerate(weights):
        z = h @ w
        h = np.maximum(z, 0.0) if a < len(weights) - 1 else z
        acts.append(h)
    return acts


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(net: LayeredNetwork, batch) -> np.ndarray:
    """Class probabilities for a batch (rows sum to 1)."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x.shape[1] != net.arch[0]:
        raise StructuralError(f"batch has {x.shape[1]} features, network expects {net.arch[0]}")
    probs = _softmax(_forward_trace(net.weights, x)[-1])
    if not np.all(np.isfinite(probs)):
        raise NumericalError("non-finite activations in forward pass")
    return probs


def _loss_grads(weights, x, labels):
    acts = _forward_trace(weights, x)
    logits = acts[-1]
    b = x.shape[0]
    # categorical cross-entropy via log-sum-exp, numerically flat wrt shifts
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(b), labels]))
    delta = _softmax(logits)
    delta[np.arange(b), labels] -= 1.0
    delta /= b
    grads = [None] * len(weights)
    for a in range(len(weights) - 1, -1, -1):
        grads[a] = acts[a].T @ delta
        if a > 0:
            delta = (delta @ weights[a].T) * (acts[a] > 0.0)
    return loss, grads, logits


def loss_and_gradients(net: LayeredNetwork, x, labels):
    """Mean cross-entropy over the batch and the gradient per weight matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    loss, grads, _ = _loss_grads(net.weights, x, labels)
    return loss, grads


# A diverging network overflows to inf and NaN; train reports that as
# NumericalError, and numpy's floating-point warnings would only repeat it.
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def train(net: LayeredNetwork, train_set: Dataset, config: TrainingConfig):
    """Plain SGD over shuffled batches; returns the trained net and history.

    The per-epoch shuffle stream is seeded by ``config.seed`` alone, so every
    network of a population sees batches in the same order.  History records
    epoch-mean loss and accuracy over the training batches.
    """
    if train_set.images.shape[1] != net.arch[0]:
        raise StructuralError("dataset feature count does not match the network input layer")
    weights = [w.copy() for w in net.weights]
    order_rng = np.random.default_rng(config.seed)
    n = len(train_set)
    history = []
    for epoch in range(config.epochs):
        perm = order_rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            x = train_set.images[idx]
            y = train_set.labels[idx]
            loss, grads, logits = _loss_grads(weights, x, y)
            if not math.isfinite(loss):
                raise NumericalError(f"loss diverged at epoch {epoch}")
            correct += int(np.sum(np.argmax(logits, axis=1) == y))
            losses.append(loss)
            for a, g in enumerate(grads):
                weights[a] -= config.learning_rate * g
        history.append(
            {"epoch": epoch, "loss": float(np.mean(losses)), "train_acc": correct / n}
        )
    meta = dict(net.meta)
    meta["epochs"] = int(net.meta.get("epochs", 0)) + config.epochs
    if history:
        meta["train_acc"] = history[-1]["train_acc"]
    return LayeredNetwork(arch=net.arch, weights=tuple(weights), meta=meta), history


@_QUIET
def evaluate(net: LayeredNetwork, test_set: Dataset) -> float:
    """Fraction of argmax-correct predictions (ties go to the lowest class)."""
    logits = _forward_trace(net.weights, test_set.images)[-1]
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == test_set.labels))


_POOL = {}


def _pool_init(*shared):
    _POOL["shared"] = shared  # the arguments of _train_one common to every job


def _manifest_entry(seed, model_path, meta, status):
    """One manifest entry; a failed network (no meta) has no model and no accuracies."""
    ok = meta is not None
    return {
        "seed": int(seed),
        "model_path": os.path.basename(model_path) if ok else None,
        "train_acc": float(meta["train_acc"]) if ok else None,
        "test_acc": float(meta["test_acc"]) if ok else None,
        "status": status,
    }


def _train_one(train_set, test_set, config, dataset_id, weight_seed, model_path):
    """Train, evaluate and save one network; returns its manifest entry, a
    failed one when training breaks down numerically."""
    net = init_network(config.arch, weight_seed, config.init_half_range, dataset_id)
    try:
        net, _ = train(net, train_set, config)
        test_acc = evaluate(net, test_set)
    except NumericalError as exc:
        return _manifest_entry(weight_seed, None, None, f"failed: {exc}")
    meta = dict(net.meta)
    meta["test_acc"] = test_acc
    save_model(LayeredNetwork(arch=net.arch, weights=net.weights, meta=meta), model_path)
    return _manifest_entry(weight_seed, model_path, meta, "trained")


def _check_cached(net, model_path, config, dataset_id):
    """Refuse to resume from a model trained under another configuration."""
    for name, got, want in (
        ("arch", net.arch, config.arch),
        ("meta.epochs", net.meta["epochs"], config.epochs),
        ("meta.dataset_id", net.meta["dataset_id"], dataset_id),
    ):
        if got != want:
            raise StructuralError(f"{model_path}: cached model has {name} {got!r}, this run needs {want!r}")


def _train_one_pooled(job):
    return _train_one(*_POOL["shared"], *job)


def generate_population(
    train_set: Dataset,
    test_set: Dataset,
    config: TrainingConfig,
    weight_seeds,
    out_dir,
    dataset_id="",
    workers=1,
):
    """Train one network per weight seed and serialize models plus a manifest.

    Already-serialized seeds are skipped, so an interrupted run resumes where
    it stopped; a cached model whose arch, epochs or dataset id differs from
    this run's raises StructuralError and is left in place.  One network
    failing does not abort the population; its entry is recorded with status
    "failed".  ``workers`` > 1 trains networks in parallel processes; results
    do not depend on the schedule.
    """
    if workers < 1:
        raise StructuralError(f"workers must be >= 1, got {workers}")
    weight_seeds = [int(s) for s in weight_seeds]
    if len(set(weight_seeds)) != len(weight_seeds):
        raise StructuralError("weight seeds must be distinct")
    if train_set.images.shape[1] != config.arch[0]:
        raise StructuralError("dataset feature count does not match the configured input layer")
    os.makedirs(out_dir, exist_ok=True)
    entries = {}
    todo = []
    for seed in weight_seeds:
        model_path = os.path.join(out_dir, f"model_seed{seed}.json")
        if os.path.exists(model_path):
            try:
                cached = load_model(model_path)
            except FormatError:
                os.remove(model_path)
            else:
                _check_cached(cached, model_path, config, dataset_id)
                entries[seed] = _manifest_entry(seed, model_path, cached.meta, "cached")
                continue
        todo.append((seed, model_path))

    if workers > 1 and len(todo) > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(train_set, test_set, config, dataset_id),
        ) as pool:
            trained = list(pool.map(_train_one_pooled, todo))
    else:
        trained = [_train_one(train_set, test_set, config, dataset_id, *job) for job in todo]
    entries.update((e["seed"], e) for e in trained)

    manifest = [entries[s] for s in weight_seeds]
    write_json(os.path.join(out_dir, "manifest.json"), manifest, indent=1)
    return manifest


def load_manifest(path):
    """Read a population manifest: a JSON list of objects carrying distinct
    seeds and test_acc."""
    manifest = read_json(path)
    if not isinstance(manifest, list) or not all(
        isinstance(e, dict)
        and type(e.get("seed")) is int
        and type(e.get("test_acc", "")) in (int, float, type(None))
        for e in manifest
    ):
        raise FormatError(
            f"{path}: manifest must be a JSON list of objects with an integer seed "
            "and a numeric or null test_acc"
        )
    seen = set()
    for e in manifest:
        if e["seed"] in seen:
            raise FormatError(f"{path}: seed {e['seed']} appears more than once")
        seen.add(e["seed"])
    return manifest
