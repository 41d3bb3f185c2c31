"""Bag-of-Neurons: vocabulary learning, neuron typing, and population comparison.

The vocabulary is a set of k centroids over normalized neuron descriptors,
found by Lloyd's algorithm with k-means++ seeding, many restarts, and a
relative center-shift stopping rule.  Hidden neurons are then typed by
nearest centroid, networks summarized by type-occurrence histograms, and
populations compared through the Jensen-Shannon divergence of those
histograms.  Type indices are 1-based throughout, matching the usual
psi_1..psi_k numbering of cluster tables.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .artifacts import parse_float, read_csv_rows, read_json, write_csv, write_json
from .descriptors import FeatureMatrix, NeuronDescriptor
from .errors import FormatError, StructuralError

GENERATOR_ID = "numpy-pcg64"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Vocabulary:
    """k learned neuron types: centroids in normalized descriptor units.

    Centroids are sorted ascending by their strength coordinate (ties broken
    by the bipartite-clustering coordinate).  normalizers are copied from the
    feature matrix the vocabulary was learned on, so raw descriptors can be
    normalized consistently at assignment time.  max_iter_hits counts the
    restarts of the fit that stopped at max_iter; it is not saved, and is
    None for a loaded vocabulary.
    """

    centroids: np.ndarray
    measures: tuple
    normalizers: np.ndarray
    inertia: float
    k: int
    seed: int
    benchmark_id: str = ""
    generator: str = GENERATOR_ID
    max_iter_hits: int | None = field(default=None, compare=False)

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if self.k < 2 or c.shape != (self.k, len(self.measures)):
            raise StructuralError(f"need k >= 2 centroids of length {len(self.measures)}")
        if not np.all(np.isfinite(c)):
            raise StructuralError("centroids contain non-finite values")
        norm = np.asarray(self.normalizers, dtype=np.float64)
        if norm.shape != (len(self.measures),) or not np.all(np.isfinite(norm) & (norm > 0.0)):
            raise StructuralError(
                f"normalizers must be {len(self.measures)} finite positive values, got {norm.tolist()}"
            )
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "normalizers", norm)


@dataclass(frozen=True)
class PopulationRecord:
    """One network's contribution to a population study."""

    network_id: str
    test_acc: float
    occurrence: np.ndarray | None = None


class ElbowResult(NamedTuple):
    ks: np.ndarray
    inertias: np.ndarray
    k_star: int
    chord_distances: np.ndarray  # in chord-normalized units
    low_confidence: bool  # no pronounced knee on the curve
    max_iter_hits: np.ndarray  # per k, restarts that stopped at max_iter


class CrossBenchmarkJsd(NamedTuple):
    mean: float
    std: float
    per_network: dict


# Bytes of one (restarts, k, rows) float64 distance block.  Restarts run in
# blocks of as many as fit (at least one), which bounds the temporaries at
# population scale.
_BLOCK_BYTES = 1 << 22


class _Scratch:
    """Flat float64 arrays lent out as temporaries of at most ``size``
    values, so a loop reuses its pages instead of faulting in new ones."""

    def __init__(self, size):
        self.size, self.free = size, []

    def take(self, shape):
        flat = self.free.pop() if self.free else np.empty(self.size)
        return flat[: math.prod(shape)].reshape(shape)

    def give(self, a):
        self.free.append(a.base)


def _pairwise_sum(term, add, lo, n):
    """term(lo) + ... + term(lo + n - 1), folded with ``add(acc, t)`` in the
    order of numpy's pairwise summation: one at a time below 8 terms, else
    eight interleaved partial sums joined as a balanced tree and then the
    rest one at a time, halving first above 128 terms."""
    if n < 8:
        acc = term(lo)
        for j in range(lo + 1, lo + n):
            acc = add(acc, term(j))
        return acc
    if n > 128:
        half = n // 2 - n // 2 % 8
        return add(_pairwise_sum(term, add, lo, half), _pairwise_sum(term, add, lo + half, n - half))
    end = lo + n - n % 8

    def tree(m, width):
        if width > 1:
            return add(tree(m, width // 2), tree(m + width // 2, width // 2))
        acc = term(lo + m)
        for j in range(lo + m + 8, end, 8):
            acc = add(acc, term(j))
        return acc

    acc = tree(0, 8)
    for j in range(end, lo + n):
        acc = add(acc, term(j))
    return acc


def _squared_distances(x, centers, scratch=None):
    """(..., k, r) squared distances from centers (..., k, d) to rows x (r, d).

    Bit-identical to ``((x[:, None] - centers[..., None, :, :]) ** 2).sum(-1)``
    with its last two axes swapped: numpy sums the d coordinates pairwise,
    and so does this, one coordinate at a time.  Temporaries come from
    ``scratch`` when given; the result is one of them.
    """
    shape = centers.shape[:-1] + x.shape[:1]
    xt = x.T

    def term(j):
        t = scratch.take(shape) if scratch else np.empty(shape)
        np.subtract(xt[j], centers[..., j, np.newaxis], out=t)
        return np.square(t, out=t)

    def add(acc, t):
        acc += t
        if scratch:
            scratch.give(t)
        return acc

    return _pairwise_sum(term, add, 0, x.shape[1])


def _kmeanspp(x, k, rngs):
    """k-means++ centers (R, k, d), one restart per generator.

    Each generator draws as a lone restart would: ``integers`` for the first
    center, then one ``choice`` weighted by d^2 per further center (again
    ``integers`` when every row already is a center)."""
    r = x.shape[0]
    centers = np.empty((len(rngs), k, x.shape[1]))
    centers[:, 0] = x[[rng.integers(r) for rng in rngs]]
    d2 = _squared_distances(x, centers[:, 0])
    for c in range(1, k):
        picks = []
        for rng, row in zip(rngs, d2):
            total = row.sum()
            picks.append(rng.choice(r, p=row / total) if total > 0.0 else rng.integers(r))
        centers[:, c] = x[picks]
        np.minimum(d2, _squared_distances(x, centers[:, c]), out=d2)
    return centers


def _lockstep(x, k, rngs, rel_tol, max_iter):
    """Lloyd's algorithm for one block of restarts, all advanced together.

    Each restart follows the lone-restart rule bit for bit: centroid sums
    accumulate in row order, an empty cluster is revived at the worst-fit
    point, and a restart stops, leaving the active set, once the Frobenius
    norm of its center shift falls below ``rel_tol`` relative to its previous
    centers.  Returns the final centers (R, k, d), their inertias, the
    per-restart inertia traces, and how many restarts were still moving at
    ``max_iter``.
    """
    r, d = x.shape
    centers = _kmeanspp(x, k, rngs)
    traces = [[] for _ in rngs]
    columns = np.tile(x.T, (1, len(rngs)))  # x[:, j] once per restart
    scratch = _Scratch(len(rngs) * k * r)
    active = np.arange(len(rngs))
    for _ in range(max_iter):
        if active.size == 0:
            break
        old = centers[active]
        d2 = _squared_distances(x, old, scratch)
        labels = d2.argmin(axis=1)
        point_d2 = d2.min(axis=1)
        scratch.give(d2)
        bins = (labels + k * np.arange(active.size)[:, np.newaxis]).ravel()
        size = active.size * k
        counts = np.bincount(bins, minlength=size).reshape(-1, k)
        new = np.empty_like(old)
        for j in range(d):
            new[..., j] = np.bincount(bins, columns[j, : bins.size], size).reshape(-1, k)
        new /= np.maximum(counts, 1)[..., np.newaxis]
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            empty = np.flatnonzero(counts[a] == 0)
            order = np.argsort(-point_d2[a], kind="stable")
            new[a, empty] = x[order[: empty.size]]
        moving = np.empty(active.size, dtype=bool)
        for a, i in enumerate(active):
            traces[i].append(float(point_d2[a].sum()))
            shift = float(np.linalg.norm(new[a] - old[a]))
            scale = max(float(np.linalg.norm(old[a])), 1e-300)
            moving[a] = not shift / scale < rel_tol
        centers[active] = new
        active = active[moving]
    inertias = np.array([float(row.sum()) for row in _squared_distances(x, centers).min(axis=1)])
    return centers, inertias, traces, int(active.size)


def _sort_centroids(centers, measures):
    cols = list(measures)
    primary = cols.index("s") if "s" in cols else 0
    tie = cols.index("bc") if "bc" in cols else (1 if len(cols) > 1 else 0)
    order = np.lexsort((centers[:, tie], centers[:, primary]))
    return centers[order]


def kmeans(
    fm: FeatureMatrix,
    k,
    restarts=100,
    rel_tol=1e-3,
    max_iter=300,
    seed=0,
    benchmark_id="",
    return_traces=False,
):
    """Learn a k-type vocabulary from a normalized feature matrix.

    Runs ``restarts`` independent Lloyd fits (k-means++ seeding, empty
    clusters revived at the worst-fit point) and keeps the lowest-inertia
    result, ties going to the earliest restart.  Convergence is declared
    when the Frobenius norm of the center shift drops below ``rel_tol``
    relative to the previous centers.  Each restart draws from its own
    generator spawned from ``seed``; restarts advance in lockstep, in blocks
    whose (restarts, k, rows) distance array fits ``_BLOCK_BYTES``, with the
    same result bit for bit as fitting them one by one.  The number of
    restarts that stopped at ``max_iter`` is logged as a warning and kept in
    ``Vocabulary.max_iter_hits``.
    """
    x = fm.data
    if not np.all(np.isfinite(x)):
        raise StructuralError("feature matrix contains non-finite values")
    if not 2 <= k <= x.shape[0]:
        raise StructuralError(f"k must lie in [2, {x.shape[0]}], got {k}")
    if restarts < 1:
        raise StructuralError(f"restarts must be >= 1, got {restarts}")
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(restarts)]
    block = max(1, _BLOCK_BYTES // (8 * x.shape[0] * k))
    fits = [_lockstep(x, k, rngs[i : i + block], rel_tol, max_iter) for i in range(0, restarts, block)]
    centers, inertias, traces, hits = zip(*fits)
    inertias = np.concatenate(inertias)
    best = int(np.argmin(inertias))
    hits = sum(hits)
    if hits:
        log.warning("k=%d: %d of %d restarts stopped at max_iter=%d", k, hits, restarts, max_iter)
    vocab = Vocabulary(
        centroids=_sort_centroids(np.concatenate(centers)[best], fm.measures),
        measures=fm.measures,
        normalizers=fm.normalizers.copy(),
        inertia=float(inertias[best]),
        k=int(k),
        seed=int(seed),
        benchmark_id=benchmark_id,
        max_iter_hits=hits,
    )
    if return_traces:
        return vocab, [trace for block_traces in traces for trace in block_traces]
    return vocab


def chord_knee(ks, inertias):
    """Knee of a distortion curve: max perpendicular distance to its chord.

    Both axes are rescaled to [0, 1] before measuring distances, so the
    result is invariant to the inertia scale.  A curve without a pronounced
    knee (max distance below 0.05 in rescaled units) is flagged
    low-confidence, with the max-deviation point still reported.
    """
    ks = np.asarray(ks)
    inertias = np.asarray(inertias, dtype=np.float64)
    xs = (ks - ks[0]) / (ks[-1] - ks[0])
    span = inertias.max() - inertias.min()
    if span == 0.0:
        return int(ks[0]), np.zeros(len(ks)), True
    ys = (inertias - inertias.min()) / span
    slope = ys[-1] - ys[0]
    dist = np.abs(slope * xs - ys + ys[0]) / math.hypot(slope, 1.0)
    return int(ks[int(np.argmax(dist))]), dist, bool(dist.max() < 0.05)


def elbow_scan(fm, kmin=2, kmax=18, restarts=100, rel_tol=1e-3, seed=0):
    """Distortion curve over k plus the knee found by the chord rule.

    Each k runs a full kmeans (seed derived from ``seed`` and k); the knee is
    the point farthest from the chord joining the curve's endpoints.
    """
    if not 2 <= kmin < kmax:
        raise StructuralError(f"need 2 <= kmin < kmax, got ({kmin}, {kmax})")
    if kmax > fm.row_count:
        raise StructuralError(f"kmax {kmax} exceeds the {fm.row_count} available rows")
    ks = np.arange(kmin, kmax + 1)
    inertias = np.empty(len(ks))
    hits = np.empty(len(ks), dtype=np.int64)
    for i, k in enumerate(ks):
        child = int(np.random.SeedSequence([seed, int(k)]).generate_state(1)[0])
        vocab = kmeans(fm, int(k), restarts=restarts, rel_tol=rel_tol, seed=child)
        inertias[i], hits[i] = vocab.inertia, vocab.max_iter_hits
    k_star, dist, low_confidence = chord_knee(ks, inertias)
    return ElbowResult(ks, inertias, k_star, dist, low_confidence, hits)


def _normalize_rows(vocab, values, measures):
    if tuple(measures) != vocab.measures:
        raise StructuralError(
            f"measure list {tuple(measures)} does not match vocabulary {vocab.measures}"
        )
    return np.asarray(values, dtype=np.float64) / vocab.normalizers


def assign_rows(vocab, values, measures):
    """Type index (1-based) of each raw descriptor row; NaN rows get 0."""
    x = _normalize_rows(vocab, np.atleast_2d(values), measures)
    out = np.zeros(x.shape[0], dtype=np.int64)
    ok = ~np.isnan(x).any(axis=1)
    if np.any(ok):
        out[ok] = _squared_distances(x[ok], vocab.centroids).argmin(axis=0) + 1
    return out


def assign(vocab, descriptor: NeuronDescriptor):
    """Nearest-centroid type (1-based) of one neuron; ties to the lowest type."""
    idx = assign_rows(vocab, descriptor.values, descriptor.measures)[0]
    if idx == 0:
        raise StructuralError("descriptor carries undefined values")
    return int(idx)


def occurrence(vocab, table):
    """Fraction of a network's hidden neurons assigned to each type.

    Neurons with undefined descriptors are excluded and the histogram is
    renormalized; a network with no defined neuron at all is an error.
    """
    values = np.column_stack([table.column(m) for m in vocab.measures])
    labels = assign_rows(vocab, values, vocab.measures)
    labels = labels[labels > 0]
    if labels.size == 0:
        raise StructuralError(f"{table.network_id!r}: every hidden neuron is undefined")
    freq = np.bincount(labels - 1, minlength=vocab.k).astype(np.float64)
    freq /= freq.sum()
    return freq


def accuracy_groups(records, group_size):
    """Split a population into (worst, median, top) accuracy groups.

    records are (network_id, test_acc) pairs.  Groups are disjoint blocks of
    the accuracy-sorted order (ties sorted by id): the lowest ``group_size``,
    a block centered on the median, and the highest ``group_size``.
    """
    records = [(str(nid), float(acc)) for nid, acc in records]
    n = len(records)
    if group_size < 1 or n < 3 * group_size:
        raise StructuralError(f"population of {n} cannot hold 3 disjoint groups of {group_size}")
    order = sorted(records, key=lambda r: (r[1], r[0]))
    ids = [r[0] for r in order]
    mid = (n - group_size) // 2
    return ids[:group_size], ids[mid : mid + group_size], ids[n - group_size :]


def _kld(p, q):
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def jsd(p, q):
    """Jensen-Shannon divergence with base-2 logs: 0 identical, 1 disjoint."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise StructuralError(f"histogram shapes differ: {p.shape} vs {q.shape}")
    for name, h in (("p", p), ("q", q)):
        if np.any(h < 0.0) or abs(float(h.sum()) - 1.0) > 1e-9:
            raise StructuralError(f"{name} is not a probability histogram")
    m = 0.5 * (p + q)
    value = 0.5 * _kld(p, m) + 0.5 * _kld(q, m)
    return min(max(value, 0.0), 1.0)


def cross_benchmark_jsd(vocab_source, vocab_native, tables):
    """Mean and spread of per-network JSD between two vocabularies' histograms.

    Each network is summarized under its population's native vocabulary and
    under a foreign source vocabulary; the divergence of those two histograms
    is averaged over the population (std is the population spread).
    """
    if vocab_source.measures != vocab_native.measures:
        raise StructuralError("vocabularies were built on different measure lists")
    if vocab_source.k != vocab_native.k:
        raise StructuralError("vocabularies have different k")
    per = {}
    for t in tables:
        per[t.network_id] = jsd(occurrence(vocab_native, t), occurrence(vocab_source, t))
    if not per:
        raise StructuralError("empty population")
    vals = np.array(list(per.values()))
    return CrossBenchmarkJsd(mean=float(vals.mean()), std=float(vals.std()), per_network=per)


def save_vocabulary(vocab: Vocabulary, path):
    doc = {
        "measures": list(vocab.measures),
        "normalizers": vocab.normalizers.tolist(),
        "k": vocab.k,
        "centroids": [row.tolist() for row in vocab.centroids],
        "inertia": float(vocab.inertia),
        "seed": int(vocab.seed),
        "generator": vocab.generator,
        "benchmark_id": vocab.benchmark_id,
    }
    write_json(path, doc)


def load_vocabulary(path) -> Vocabulary:
    doc = read_json(path)
    try:
        return Vocabulary(
            centroids=np.asarray(doc["centroids"], dtype=np.float64),
            measures=tuple(doc["measures"]),
            normalizers=np.asarray(doc["normalizers"], dtype=np.float64),
            inertia=float(doc["inertia"]),
            k=int(doc["k"]),
            seed=int(doc["seed"]),
            benchmark_id=str(doc.get("benchmark_id", "")),
            generator=str(doc.get("generator", GENERATOR_ID)),
        )
    except (KeyError, TypeError, ValueError, StructuralError) as exc:
        raise FormatError(f"{path}: bad vocabulary file ({exc})") from exc


def write_occurrence_csv(vocab, rows, path):
    """Occurrence CSV: network_id,test_acc,f1..fk (one row per network)."""
    write_csv(
        path,
        ["network_id", "test_acc"] + [f"f{i}" for i in range(1, vocab.k + 1)],
        ([rec.network_id, float(rec.test_acc), *rec.occurrence] for rec in rows),
    )


def read_occurrence_csv(path):
    header, lines = read_csv_rows(path)
    if header[:2] != ["network_id", "test_acc"] or len(header) < 3:
        raise FormatError(f"{path}: header must be network_id,test_acc,f1..fk")
    records = []
    for lineno, row in lines:
        try:
            records.append(
                PopulationRecord(
                    network_id=row[0],
                    test_acc=parse_float(row[1]),
                    occurrence=np.array([parse_float(x) for x in row[2:]]),
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return records
