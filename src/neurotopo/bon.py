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
from .centrality import check_measure_ids
from .descriptors import FeatureMatrix
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
    restarts of the fit that stopped at ``_MAX_ITER``; it is not saved, and
    is None for a loaded vocabulary.
    """

    centroids: np.ndarray
    measures: tuple
    normalizers: np.ndarray
    inertia: float
    k: int
    seed: int
    benchmark_id: str = ""
    max_iter_hits: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "measures", check_measure_ids(self.measures))
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
    low_confidence: bool  # no pronounced knee on the curve
    max_iter_hits: np.ndarray  # per k, restarts that stopped at _MAX_ITER


class CrossBenchmarkJsd(NamedTuple):
    mean: float
    std: float
    per_network: dict


# Bytes of one (restarts, k, rows) float64 distance block.  Restarts run in
# blocks of as many as fit (at least one), which bounds the temporaries at
# population scale.
_BLOCK_BYTES = 1 << 22

# A restart has converged once the Frobenius norm of its center shift falls
# below this fraction of the norm of its previous centers.
_REL_TOL = 1e-3

# A restart still moving after this many Lloyd iterations stops there.
_MAX_ITER = 300


def _squared_distances(x, centers):
    """(..., k, r) squared distances from centers (..., k, d) to rows x (r, d).

    Bit-identical to ``((x[:, None] - centers[..., None, :, :]) ** 2).sum(-1)``
    with its last two axes swapped, for the widths a descriptor can have:
    numpy adds fewer than 8 coordinates one at a time and 8 as
    ((0+1)+(2+3))+((4+5)+(6+7)), and so does this, in place.
    """
    xt = x.T

    def term(j):
        return np.square(xt[j] - centers[..., j, np.newaxis])

    def pair(j):
        acc = term(j)
        acc += term(j + 1)
        return acc

    if x.shape[1] == 8:
        acc = pair(0)
        acc += pair(2)
        half = pair(4)
        half += pair(6)
        acc += half
        return acc
    acc = term(0)
    for j in range(1, x.shape[1]):
        acc += term(j)
    return acc


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


def _lockstep(x, k, rngs):
    """Lloyd's algorithm for one block of restarts, all advanced together.

    Each restart follows the lone-restart rule bit for bit: centroid sums
    accumulate in row order, an empty cluster is revived at the worst-fit
    point, and a restart stops, leaving the active set, once it converges
    (``_REL_TOL``).  Returns the final centers (R, k, d), their inertias, the
    per-restart inertia traces, and how many restarts were still moving at
    ``_MAX_ITER``.
    """
    d = x.shape[1]
    centers = _kmeanspp(x, k, rngs)
    traces = [[] for _ in rngs]
    columns = np.tile(x.T, (1, len(rngs)))  # x[:, j] once per restart
    active = np.arange(len(rngs))
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        old = centers[active]
        d2 = _squared_distances(x, old)
        labels = d2.argmin(axis=1)
        point_d2 = d2.min(axis=1)
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
            moving[a] = not shift / scale < _REL_TOL
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
    seed=0,
    benchmark_id="",
    return_traces=False,
):
    """Learn a k-type vocabulary from a normalized feature matrix.

    Runs ``restarts`` independent Lloyd fits (k-means++ seeding, empty
    clusters revived at the worst-fit point) and keeps the lowest-inertia
    result, ties going to the earliest restart.  Convergence is declared
    when the Frobenius norm of the center shift drops below ``_REL_TOL``
    relative to the previous centers.  Each restart draws from its own
    generator spawned from ``seed``; restarts advance in lockstep, in blocks
    whose (restarts, k, rows) distance array fits ``_BLOCK_BYTES``, with the
    same result bit for bit as fitting them one by one.  The number of
    restarts that stopped at ``_MAX_ITER`` is logged as a warning and kept in
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
    fits = [_lockstep(x, k, rngs[i : i + block]) for i in range(0, restarts, block)]
    centers, inertias, traces, hits = zip(*fits)
    inertias = np.concatenate(inertias)
    best = int(np.argmin(inertias))
    hits = sum(hits)
    if hits:
        log.warning("k=%d: %d of %d restarts stopped at max_iter=%d", k, hits, restarts, _MAX_ITER)
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


def elbow_scan(fm, kmin=2, kmax=18, restarts=100, seed=0):
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
        vocab = kmeans(fm, int(k), restarts=restarts, seed=child)
        inertias[i], hits[i] = vocab.inertia, vocab.max_iter_hits
    k_star, _, low_confidence = chord_knee(ks, inertias)
    return ElbowResult(ks, inertias, k_star, low_confidence, hits)


def assign_rows(vocab, values):
    """Nearest-centroid type (1-based) of each raw descriptor row, ties to the
    lowest type; rows with an undefined value get 0."""
    x = np.atleast_2d(np.asarray(values, dtype=np.float64)) / vocab.normalizers
    out = np.zeros(x.shape[0], dtype=np.int64)
    ok = ~np.isnan(x).any(axis=1)
    if np.any(ok):
        out[ok] = _squared_distances(x[ok], vocab.centroids).argmin(axis=0) + 1
    return out


def occurrence(vocab, table):
    """Fraction of a network's hidden neurons assigned to each type.

    Neurons with undefined descriptors are excluded and the histogram is
    renormalized; a network with no defined neuron at all is an error.
    """
    values = np.column_stack([table.column(m) for m in vocab.measures])
    labels = assign_rows(vocab, values)
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
        "generator": GENERATOR_ID,
        "benchmark_id": vocab.benchmark_id,
    }
    write_json(path, doc)


def _typed(doc, key, *types):
    """doc[key] if its JSON type is one of ``types`` (a boolean is no int)."""
    value = doc[key]
    if type(value) not in types:
        raise TypeError(f"{key}: expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _floats(doc, key):
    """doc[key] as a float64 array whose every number is a JSON float, as
    save_vocabulary writes it; numpy would also take "1.0" or true."""
    cells = np.array(doc[key], dtype=object)
    for x in cells.flat:
        if type(x) is not float:
            raise TypeError(f"{key}: expected JSON floats, got {x!r}")
    return cells.astype(np.float64)


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary written by save_vocabulary.  centroids and
    normalizers must hold JSON floats, k and seed JSON integers and inertia
    a number; benchmark_id (a string) and generator (``GENERATOR_ID``) may
    be absent."""
    doc = read_json(path)
    try:
        doc = {"benchmark_id": "", "generator": GENERATOR_ID} | doc
        if doc["generator"] != GENERATOR_ID:
            raise ValueError(f"generator: expected {GENERATOR_ID!r}, got {doc['generator']!r}")
        return Vocabulary(
            centroids=_floats(doc, "centroids"),
            measures=tuple(doc["measures"]),
            normalizers=_floats(doc, "normalizers"),
            inertia=float(_typed(doc, "inertia", int, float)),
            k=_typed(doc, "k", int),
            seed=_typed(doc, "seed", int),
            benchmark_id=_typed(doc, "benchmark_id", str),
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
    """Read an occurrence CSV: header network_id,test_acc,f1..fk with k >= 2,
    and rows of non-negative frequencies that sum to 1 (within 1e-9)."""
    header, lines = read_csv_rows(path)
    k = len(header) - 2
    if k < 2 or header != ["network_id", "test_acc"] + [f"f{i}" for i in range(1, k + 1)]:
        raise FormatError(f"{path}: header must be network_id,test_acc,f1..fk with k >= 2")
    records = []
    for lineno, row in lines:
        try:
            freq = np.array([parse_float(x) for x in row[2:]])
            if not (np.all(freq >= 0.0) and abs(float(freq.sum()) - 1.0) <= 1e-9):
                raise ValueError(f"frequencies {row[2:]} are not a histogram (>= 0, sum 1)")
            records.append(PopulationRecord(row[0], parse_float(row[1]), freq))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return records
