#!/usr/bin/env python3
"""Bag-of-Neurons anatomy: vocabulary, elbow curve, occurrence, divergence.

Runs on planted Gaussian data so every step is easy to eyeball: the elbow
should point at the planted cluster count, centroids should land on the
planted centers, and occurrence histograms should diverge exactly as far as
the planting dictates.
"""

import numpy as np

from neurotopo import elbow_scan, jsd, kmeans
from neurotopo.bon import GENERATOR_ID
from neurotopo.descriptors import feature_matrix_from_values


def main():
    rng = np.random.default_rng(1)
    centers = np.array([[-0.6, 0.2], [0.0, 0.8], [0.5, 0.4]])
    data = np.vstack([c + rng.normal(scale=0.04, size=(120, 2)) for c in centers])
    fm = feature_matrix_from_values(data, ("s", "bc"))

    print("== elbow scan over k = 2..8 (chord rule) ==")
    result = elbow_scan(fm, 2, 8, restarts=10, seed=0)
    for k, inertia in zip(result.ks, result.inertias):
        marker = "  <- knee" if k == result.k_star else ""
        print(f"  k={k}: inertia {inertia:10.4f}{marker}")
    print(f"chose k* = {result.k_star} (low confidence: {result.low_confidence})")

    print("\n== vocabulary at the chosen k ==")
    vocab = kmeans(fm, result.k_star, restarts=25, seed=0, benchmark_id="planted-demo")
    raw = vocab.centroids * vocab.normalizers
    print("centroids (raw units, sorted by first coordinate):")
    for i, row in enumerate(raw, start=1):
        print(f"  type {i}: {np.round(row, 3).tolist()}")
    print(f"inertia {vocab.inertia:.4f}, seed {vocab.seed}, generator {GENERATOR_ID}")

    print("\n== occurrence histograms and their divergence ==")
    # two synthetic 'networks': one balanced across types, one lopsided
    balanced = np.vstack([c + rng.normal(scale=0.04, size=(40, 2)) for c in centers])
    lopsided = np.vstack(
        [centers[0] + rng.normal(scale=0.04, size=(90, 2)),
         centers[2] + rng.normal(scale=0.04, size=(10, 2))]
    )
    from neurotopo.bon import assign_rows

    def histogram(values):
        labels = assign_rows(vocab, values)
        return np.bincount(labels - 1, minlength=vocab.k) / len(labels)

    h_bal = histogram(balanced)
    h_lop = histogram(lopsided)
    print(f"  balanced network: {np.round(h_bal, 3).tolist()}")
    print(f"  lopsided network: {np.round(h_lop, 3).tolist()}")
    print(f"  jsd(balanced, balanced) = {jsd(h_bal, h_bal):.4f}")
    print(f"  jsd(balanced, lopsided) = {jsd(h_bal, h_lop):.4f}")
    print("  (0 = identical type usage, 1 = disjoint)")


if __name__ == "__main__":
    main()
