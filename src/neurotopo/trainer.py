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
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .artifacts import checked, read_json, write_json
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
        if self.seed < 0:
            raise StructuralError(f"data seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Dataset:
    """Flattened uint8 grayscale images, scaled to [0, 1] batch by batch, and class labels."""

    images: np.ndarray  # (N, pixels) uint8
    labels: np.ndarray  # (N,) int64 in [0, 9]

    def __post_init__(self):
        images = np.ascontiguousarray(self.images)
        if images.dtype != np.uint8:
            raise StructuralError(f"images must be uint8 pixels, got {images.dtype}")
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if images.ndim != 2 or labels.ndim != 1 or images.shape[0] != labels.shape[0]:
            raise StructuralError("images and labels must agree on sample count")
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


def _read_idx(path, magic, what, dims):
    """The ``dims`` header sizes after the magic, and a view of the body, of
    the IDX file at ``path``; FormatError for a short header, another magic,
    or a ``.gz`` file that is not whole, valid gzip."""
    try:
        with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as fh:
            data = memoryview(fh.read())
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise FormatError(f"{path}: not a valid gzip file ({exc})") from exc
    size = 4 * (1 + dims)
    if len(data) < size:
        raise FormatError(f"{path}: truncated while reading header (offset {len(data)})")
    got, *shape = struct.unpack(f">{1 + dims}I", data[:size])
    if got != magic:
        raise FormatError(f"{path}: bad {what} magic 0x{got:08x} (offset 0)")
    return shape, data[size:]


def _check_body(path, body, size, offset, what):
    """FormatError unless the body after the header holds exactly ``size`` bytes."""
    if len(body) < size:
        raise FormatError(f"{path}: truncated while reading {what} (offset {offset + len(body)})")
    if len(body) > size:
        raise FormatError(f"{path}: trailing bytes after {what}")


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (plain or .gz) as a Dataset.

    Pixels stay uint8, as the file holds them.  Every structural defect
    (magic, dimensions, truncation, label range, count mismatch) is a
    FormatError naming the file and offset.  Only the bytes a file holds are
    read, whatever sizes its header claims.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, "images", 3)
    if rows != 28 or cols != 28:
        raise FormatError(f"{images_path}: expected 28x28 images, got {rows}x{cols}")
    _check_body(images_path, pixels, count * rows * cols, 16, "pixel data")
    (lcount,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels", 1)
    if lcount != count:
        raise FormatError(f"{labels_path}: {lcount} labels for {count} images")
    _check_body(labels_path, labels, lcount, 8, "label data")
    labels = np.frombuffer(labels, dtype=np.uint8)
    if labels.size and labels.max() >= CLASS_COUNT:
        bad = int(np.argmax(labels >= CLASS_COUNT))
        raise FormatError(f"{labels_path}: label {int(labels[bad])} out of range at index {bad}")
    images = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols)
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
            x = train_set.images[idx] / 255.0
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
    logits = _forward_trace(net.weights, test_set.images / 255.0)[-1]
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
    it stopped.  A cached model file is left in place when it is refused: a
    malformed one (writes are atomic, so no run of this library left it)
    raises FormatError, and one whose arch, epochs or dataset id differs from
    this run's raises StructuralError.  One network failing does not abort
    the population; its entry is recorded with status "failed".  With
    ``workers`` > 1, networks train in parallel processes; results do not
    depend on the schedule.
    """
    if workers < 1:
        raise StructuralError(f"workers must be >= 1, got {workers}")
    weight_seeds = [int(s) for s in weight_seeds]
    if len(set(weight_seeds)) != len(weight_seeds):
        raise StructuralError("weight seeds must be distinct")
    if min(weight_seeds, default=0) < 0:
        raise StructuralError(f"weight seeds must be >= 0, got {min(weight_seeds)}")
    if train_set.images.shape[1] != config.arch[0]:
        raise StructuralError("dataset feature count does not match the configured input layer")
    os.makedirs(out_dir, exist_ok=True)
    entries = {}
    todo = []
    for seed in weight_seeds:
        model_path = os.path.join(out_dir, f"model_seed{seed}.json")
        if os.path.exists(model_path):
            cached = load_model(model_path)
            _check_cached(cached, model_path, config, dataset_id)
            entries[seed] = _manifest_entry(seed, model_path, cached.meta, "cached")
        else:
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
    non-negative integer seeds and a test_acc in [0, 1] or null."""
    manifest = read_json(path)
    if type(manifest) is not list or not all(type(e) is dict for e in manifest):
        raise FormatError(f"{path}: manifest must be a JSON list of objects")
    seen = set()
    for i, e in enumerate(manifest):
        try:
            seed = checked(e, "seed", int, (0, math.inf))
            checked(e, "test_acc", (int, float, type(None)), (0, 1))
        except ValueError as exc:
            raise FormatError(f"{path}: [{i}].{exc}") from None
        if seed in seen:
            raise FormatError(f"{path}: seed {seed} appears more than once")
        seen.add(seed)
    return manifest
