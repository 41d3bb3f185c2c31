"""IDX file writing and a deterministic surrogate digit corpus.

The surrogate renders ten glyph classes on a 28x28 grid with per-sample
jitter, thickness, contrast, and noise, then serializes the result in the
exact IDX byte format used by the classic digit benchmarks.  It exists so
that the full training pipeline can run in environments where the real
benchmark archives cannot be downloaded; the files it writes are structurally
indistinguishable from the official ones.
"""

import os
import struct

import numpy as np

from .artifacts import write_bytes
from .errors import StructuralError
from .trainer import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC

# 7x5 dot-matrix glyphs for digits 0..9, scaled up onto the 28x28 canvas
_GLYPHS = [
    ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    ["01110", "10001", "00001", "00110", "01000", "10000", "11111"],
    ["01110", "10001", "00001", "00110", "00001", "10001", "01110"],
    ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
]


def _render(rng, digit):
    canvas = np.zeros((28, 28))
    glyph = np.array([[c == "1" for c in row] for row in _GLYPHS[digit]], dtype=float)
    scale = int(rng.integers(3, 5))  # cell size 3 or 4 -> glyph 21x15 or 28x20
    big = np.kron(glyph, np.ones((scale, scale)))
    h, w = big.shape
    # roughly centered with small jitter, like the classic digit benchmarks
    dy = (28 - h) // 2 + int(rng.integers(-2, 3))
    dx = (28 - w) // 2 + int(rng.integers(-2, 3))
    dy = min(max(dy, 0), 28 - h)
    dx = min(max(dx, 0), 28 - w)
    canvas[dy : dy + h, dx : dx + w] = big
    # soften edges with a single 3x3 box-blur pass
    padded = np.pad(canvas, 1)
    blurred = sum(
        padded[1 + a : 29 + a, 1 + b : 29 + b] for a in (-1, 0, 1) for b in (-1, 0, 1)
    ) / 9.0
    contrast = rng.uniform(0.6, 1.0)
    noise = rng.uniform(0.0, 0.15, size=(28, 28))
    img = np.clip(blurred * contrast + noise, 0.0, 1.0)
    return (img * 255).astype(np.uint8)


def synthetic_digits(count, seed):
    """Deterministic labeled 28x28 grayscale corpus with ten glyph classes."""
    if count < 1 or seed < 0:
        raise StructuralError(f"count must be >= 1 and seed >= 0, got count {count} and seed {seed}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    images = np.stack([_render(rng, int(d)) for d in labels])
    return images, labels


def write_idx(images, labels, images_path, labels_path):
    """Serialize a uint8 image stack and labels in the IDX byte format; each
    file is replaced atomically, as every artifact is."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3 or images.shape[0] != labels.shape[0]:
        raise StructuralError("need (N, rows, cols) images and N labels")
    n, rows, cols = images.shape
    write_bytes(images_path, [struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols), images.tobytes()])
    write_bytes(labels_path, [struct.pack(">II", IDX_LABELS_MAGIC, n), labels.tobytes()])


def write_synthetic_benchmark(out_dir, train_count=5000, test_count=1000, seed=1234):
    """Write a train/test surrogate benchmark in the standard four-file layout."""
    train_images, train_labels = synthetic_digits(train_count, seed)
    test_images, test_labels = synthetic_digits(test_count, seed + 1)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "train_images": os.path.join(out_dir, "train-images-idx3-ubyte"),
        "train_labels": os.path.join(out_dir, "train-labels-idx1-ubyte"),
        "test_images": os.path.join(out_dir, "t10k-images-idx3-ubyte"),
        "test_labels": os.path.join(out_dir, "t10k-labels-idx1-ubyte"),
    }
    write_idx(train_images, train_labels, paths["train_images"], paths["train_labels"])
    write_idx(test_images, test_labels, paths["test_images"], paths["test_labels"])
    return paths
