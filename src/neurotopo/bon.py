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

from .artifacts import checked, parse_float, read_csv_rows, read_json, write_csv, write_json
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
        if self.seed < 0 or self.inertia < 0.0:
            raise StructuralError(f"seed and inertia must be >= 0, got {self.seed} and {self.inertia}")
        if not np.isfinite(self.inertia):
            raise StructuralError(f"inertia must be finite, got {self.inertia}")
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


# Bytes of one (restarts, rows) float64 distance block.  Restarts run in
# blocks of as many as fit (at least one), which bounds the temporaries at
# population scale.
_BLOCK_BYTES = 1 << 20

# A restart has converged once the Frobenius norm of its center shift falls
# below this fraction of the norm of its previous centers.
_REL_TOL = 1e-3

# A restart still moving after this many Lloyd iterations stops there.
_MAX_ITER = 300


def _squared_distances(x, centers, out=None):
    """(..., k, r) squared distances from centers (..., k, d) to rows x (r, d),
    computed in ``out[0]`` with the rest of ``out`` as scratch: 4 arrays of
    that shape (2 below d = 8, as made here when not given).

    Bit-identical to ``((x[:, None] - centers[..., None, :, :]) ** 2).sum(-1)``
    with its last two axes swapped, for the widths a descriptor can have:
    numpy adds fewer than 8 coordinates one at a time and 8 as
    ((0+1)+(2+3))+((4+5)+(6+7)), and so does this, in place.
    """
    xt = x.T
    if out is None:
        out = np.empty((4 if x.shape[1] == 8 else 2,) + centers.shape[:-1] + xt.shape[1:])
    acc, tmp = out[0], out[-1]

    def term(j, into):
        np.subtract(xt[j], centers[..., j, np.newaxis], out=into)
        return np.square(into, out=into)

    def pair(j, into):
        term(j, into)
        into += term(j + 1, tmp)
        return into

    if x.shape[1] == 8:
        pair(0, acc)
        acc += pair(2, out[1])
        half = pair(4, out[1])
        half += pair(6, out[2])
        acc += half
        return acc
    term(0, acc)
    for j in range(1, x.shape[1]):
        acc += term(j, tmp)
    return acc


@np.errstate(divide="ignore", invalid="ignore")  # an all-zero row's NaN cdf is never read
def _weighted_picks(weights, rngs):
    """Per row of weights (R, r) and its generator, ``rng.choice(r, p=row / row.sum())``
    replayed at once: one ``random()``, counted in the renormalized cdf as choice's
    ``searchsorted(side="right")``; ``rng.integers(r)`` for an all-zero row."""
    total = weights.sum(axis=1)
    cdf = np.cumsum(weights / total[:, np.newaxis], axis=1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() if t > 0.0 else np.nan for rng, t in zip(rngs, total)])
    picks = np.count_nonzero(cdf <= u[:, np.newaxis], axis=1)
    for a in np.flatnonzero(total == 0.0):
        picks[a] = rngs[a].integers(weights.shape[1])
    return picks


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
        centers[:, c] = x[_weighted_picks(d2, rngs)]
        np.minimum(d2, _squared_distances(x, centers[:, c]), out=d2)
    return centers


def _nearest(x, centers):
    """Labels and squared distances (R, r) of the nearest of centers (R, k, d) to
    the rows x, one centre at a time into reused buffers.  A label is the last
    centre to strictly improve on all before it, which is the first argmin."""
    bufs = np.empty((5, centers.shape[0], x.shape[0]))
    best = _squared_distances(x, centers[:, 0], bufs[:4])
    labels = np.zeros(best.shape, dtype=np.intp)
    closer, step = np.empty(best.shape, dtype=bool), np.empty_like(labels)
    for c in range(1, centers.shape[1]):
        d2 = _squared_distances(x, centers[:, c], bufs[1:])
        np.maximum(labels, np.multiply(np.less(d2, best, out=closer), c, out=step), out=labels)
        np.minimum(best, d2, out=best)
    return labels, best


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
        labels, point_d2 = _nearest(x, old)
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
        for i, inertia in zip(active, point_d2.sum(axis=1).tolist()):
            traces[i].append(inertia)
        # np.linalg.norm (a BLAS dot) decides where the batched ratio is too close to call
        ratio = np.sqrt(np.square(new - old).sum(axis=(1, 2)))
        ratio /= np.maximum(np.sqrt(np.square(old).sum(axis=(1, 2))), 1e-300)
        for a in np.flatnonzero(np.abs(ratio - _REL_TOL) <= 1e-9 * _REL_TOL):
            ratio[a] = float(np.linalg.norm(new[a] - old[a])) / max(float(np.linalg.norm(old[a])), 1e-300)
        centers[active] = new
        active = active[~(ratio < _REL_TOL)]
    inertias = _nearest(x, centers)[1].sum(axis=1)
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
    whose (restarts, rows) distance array fits ``_BLOCK_BYTES``, with the
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
    if seed < 0:
        raise StructuralError(f"seed must be >= 0, got {seed}")
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(restarts)]
    block = max(1, _BLOCK_BYTES // (8 * x.shape[0]))
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
    if seed < 0:
        raise StructuralError(f"seed must be >= 0, got {seed}")
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
        out[ok] = _nearest(x[ok], vocab.centroids[np.newaxis])[0][0] + 1
    return out


def _types(vocab, table):
    """Type of each hidden neuron of a network, 0 where a descriptor is undefined."""
    return assign_rows(vocab, np.column_stack([table.column(m) for m in vocab.measures]))


def occurrence(vocab, table):
    """Fraction of a network's hidden neurons assigned to each type.

    Neurons with undefined descriptors are excluded and the histogram is
    renormalized; a network with no defined neuron at all is an error.
    """
    labels = _types(vocab, table)
    if not labels.any():
        raise StructuralError(f"{table.network_id!r}: every hidden neuron is undefined")
    freq = np.bincount(labels, minlength=vocab.k + 1)[1:].astype(np.float64)
    freq /= freq.sum()
    return freq


def split_undefined(vocab, tables):
    """(tables, ids): the tables ``occurrence`` takes under the vocabulary,
    and the ids of the networks it refuses for having no defined neuron."""
    undefined = [t.network_id for t in tables if not _types(vocab, t).any()]
    return [t for t in tables if t.network_id not in undefined], undefined


def accuracy_groups(records, group_size):
    """Split a population into (worst, median, top) accuracy groups.

    records are (network_id, test_acc) pairs; a NaN accuracy cannot be
    ranked and is a StructuralError.  Groups are disjoint blocks of the
    accuracy-sorted order (ties sorted by id): the lowest ``group_size``, a
    block centered on the median, and the highest ``group_size``.
    """
    records = [(str(nid), float(acc)) for nid, acc in records]
    undefined = [nid for nid, acc in records if math.isnan(acc)]
    if undefined:
        raise StructuralError(f"undefined test accuracy for networks {undefined}: they cannot be ranked")
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


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary written by save_vocabulary.  measures must be a
    list of JSON strings, centroids and normalizers must hold JSON floats,
    k and seed JSON integers and inertia a number; benchmark_id (a string)
    and generator (``GENERATOR_ID``) may be absent."""
    doc = read_json(path)
    try:
        if type(doc) is not dict:
            kind = {list: "array", str: "string", bool: "boolean", type(None): "null"}.get(type(doc), "number")
            raise ValueError(f"expected a JSON object, got a JSON {kind}")
        doc = {"benchmark_id": "", "generator": GENERATOR_ID} | doc
        if checked(doc, "generator", str) != GENERATOR_ID:
            raise ValueError(f"generator: expected {GENERATOR_ID!r}, got {doc['generator']!r}")
        return Vocabulary(
            centroids=checked(doc, "centroids", [[float]]),
            measures=tuple(checked(doc, "measures", [str])),
            normalizers=checked(doc, "normalizers", [float]),
            inertia=float(checked(doc, "inertia", (int, float))),
            k=checked(doc, "k", int),
            seed=checked(doc, "seed", int),
            benchmark_id=checked(doc, "benchmark_id", str),
        )
    except (TypeError, ValueError, StructuralError) as exc:
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
    and at least one row; each row a distinct network id, a test_acc in
    [0, 1] or NaN, and non-negative frequencies that sum to 1 (within 1e-9)."""
    header, lines = read_csv_rows(path)
    k = len(header) - 2
    if k < 2 or header != ["network_id", "test_acc"] + [f"f{i}" for i in range(1, k + 1)]:
        raise FormatError(f"{path}: header must be network_id,test_acc,f1..fk with k >= 2")
    if not lines:
        raise FormatError(f"{path}: no occurrence rows")
    records, first = [], {}
    for lineno, row in lines:
        try:
            if first.setdefault(row[0], lineno) != lineno:
                raise ValueError(f"network id {row[0]!r} repeats line {first[row[0]]}")
            freq = np.array([parse_float(x) for x in row[2:]])
            if not (np.all(freq >= 0.0) and abs(float(freq.sum()) - 1.0) <= 1e-9):
                raise ValueError(f"frequencies {row[2:]} are not a histogram (>= 0, sum 1)")
            acc = parse_float(row[1])
            if not (math.isnan(acc) or 0.0 <= acc <= 1.0):
                raise ValueError(f"test_acc {row[1]} is outside [0, 1]")
            records.append(PopulationRecord(row[0], acc, freq))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return records
