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

# the 20 glyph bitmaps, [digit][scale - 3]: cell size 3 or 4 -> glyph 21x15 or 28x20
_BITMAPS = [
    [np.kron(np.array([[c == "1" for c in row] for row in g], dtype=float), np.ones((s, s))) for s in (3, 4)]
    for g in _GLYPHS
]
_BLOCK = 64  # images rendered together: few Python-level array ops, a cache-sized working set


def synthetic_digits(count, seed):
    """Deterministic labeled 28x28 grayscale corpus with ten glyph classes.
    Each image draws in turn; the float operations a lone image would take
    then run on a block of images, so the bytes do not depend on _BLOCK."""
    if count < 1 or seed < 0:
        raise StructuralError(f"count must be >= 1 and seed >= 0, got count {count} and seed {seed}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    images = np.empty((count, 28, 28), dtype=np.uint8)
    for start in range(0, count, _BLOCK):
        digits = labels[start : start + _BLOCK].tolist()
        padded = np.zeros((len(digits), 30, 30))  # each 28x28 canvas with a zero border
        contrast, noise = [], np.empty((len(digits), 28, 28))
        for i, digit in enumerate(digits):
            big = _BITMAPS[digit][int(rng.integers(3, 5)) - 3]
            h, w = big.shape
            # roughly centered with small jitter, like the classic digit benchmarks
            dy = min(max((28 - h) // 2 + int(rng.integers(-2, 3)), 0), 28 - h)
            dx = min(max((28 - w) // 2 + int(rng.integers(-2, 3)), 0), 28 - w)
            padded[i, 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w] = big
            contrast.append(rng.uniform(0.6, 1.0))
            noise[i] = rng.uniform(0.0, 0.15, size=(28, 28))
        # soften edges with a single 3x3 box-blur pass
        blurred = sum(
            padded[:, 1 + a : 29 + a, 1 + b : 29 + b] for a in (-1, 0, 1) for b in (-1, 0, 1)
        ) / 9.0
        img = np.clip(blurred * np.array(contrast)[:, np.newaxis, np.newaxis] + noise, 0.0, 1.0)
        images[start : start + _BLOCK] = (img * 255).astype(np.uint8)
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
