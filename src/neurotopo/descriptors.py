"""Layer summaries, local neuron descriptors, and the population feature matrix.

A network is summarized either per layer (the mean of one measure over a
hidden layer) or per neuron (the vector of selected measures).  Stacking the
per-neuron vectors of a whole population gives the feature matrix that the
Bag-of-Neurons vocabulary is learned from; columns are scaled by their
maximum absolute value so no measure dominates Euclidean distances.
"""

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .centrality import NeuronMeasures, check_measure_ids
from .errors import StructuralError

log = logging.getLogger(__name__)


class LayerMean(NamedTuple):
    value: float  # NaN when every neuron in the layer was undefined
    skipped: int  # neurons excluded for being undefined


class ScatterPoint(NamedTuple):
    network_id: str
    x: float  # layer-1 mean of the measure
    y: float  # layer-2 mean of the measure
    test_acc: float


@dataclass(frozen=True)
class FeatureMatrix:
    """Stacked, column-normalized neuron descriptors for a population.

    data holds normalized values (|column| max is 1 unless the raw column was
    all zero); multiplying by ``normalizers`` restores raw units.  Row order
    is (network ascending, layer ascending, neuron ascending); rows with any
    undefined value are excluded and counted in ``excluded_rows``.
    """

    data: np.ndarray
    measures: tuple
    normalizers: np.ndarray
    excluded_rows: int

    @property
    def row_count(self):
        return self.data.shape[0]


def layer_mean(table: NeuronMeasures, measure_id, layer_index) -> LayerMean:
    """Mean of one measure over the defined neurons of one hidden layer."""
    col = table.column(measure_id)
    in_layer = table.layer == layer_index
    if not np.any(in_layer):
        raise StructuralError(f"{table.network_id!r} has no layer {layer_index}")
    vals = col[in_layer]
    defined = ~np.isnan(vals)
    skipped = int(np.sum(~defined))
    if not np.any(defined):
        return LayerMean(value=math.nan, skipped=skipped)
    return LayerMean(value=float(np.mean(vals[defined])), skipped=skipped)


def scatter_points(tables, measure_id):
    """One (x, y, accuracy) point per 4-layer network.

    x and y are the layer means of the measure over the first and second
    hidden layers; anything but exactly two hidden layers is an error.
    """
    points = []
    for t in tables:
        if t.hidden_layers != (1, 2):
            raise StructuralError(
                f"{t.network_id!r}: scatter needs exactly hidden layers (1, 2), got {t.hidden_layers}"
            )
        points.append(
            ScatterPoint(
                network_id=t.network_id,
                x=layer_mean(t, measure_id, 1).value,
                y=layer_mean(t, measure_id, 2).value,
                test_acc=t.test_acc,
            )
        )
    return points


def build_feature_matrix(tables, measures) -> FeatureMatrix:
    """Stack per-neuron descriptors of a population and normalize columns.

    All networks must share an architecture (equal hidden-layer layout).
    Normalization is that of ``feature_matrix_from_values``.
    """
    measures = check_measure_ids(measures)
    tables = sorted(tables, key=lambda t: t.network_id)
    if not tables:
        raise StructuralError("empty population")
    shape0 = (tables[0].layer.tolist(), tables[0].neuron.tolist())
    blocks = []
    for t in tables:
        if (t.layer.tolist(), t.neuron.tolist()) != shape0:
            raise StructuralError(f"{t.network_id!r}: architecture differs from the population")
        blocks.append(np.column_stack([t.column(m) for m in measures]))
    return feature_matrix_from_values(np.vstack(blocks), measures)


def feature_matrix_from_values(values, measures):
    """Wrap a raw (rows, m) value array as a normalized FeatureMatrix.

    Rows with an undefined value are dropped.  Each column is divided by its
    maximum absolute value; an all-zero column is left unscaled with its
    normalizer recorded as 1.
    """
    measures = check_measure_ids(measures)
    raw = np.asarray(values, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != len(measures):
        raise StructuralError(f"value array must be 2-D with {len(measures)} columns")
    keep = ~np.isnan(raw).any(axis=1)
    if not np.any(keep):
        raise StructuralError("every row carried an undefined value")
    raw = raw[keep]
    normalizers = np.abs(raw).max(axis=0)
    zero = normalizers == 0.0
    if np.any(zero):
        log.warning("all-zero feature columns left unscaled: %s", [measures[j] for j in np.flatnonzero(zero)])
        normalizers = np.where(zero, 1.0, normalizers)
    return FeatureMatrix(
        data=raw / normalizers,
        measures=measures,
        normalizers=normalizers,
        excluded_rows=int(np.sum(~keep)),
    )


def pearson_matrix(values):
    """Pearson correlation between measure columns of a raw value matrix.

    Constant columns get NaN entries (their correlation is undefined);
    everything else lands in [-1, 1] with a unit diagonal.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise StructuralError("pearson_matrix needs a 2-D array with at least 2 rows")
    xc = x - x.mean(axis=0)
    denom = np.sqrt((xc * xc).sum(axis=0))
    constant = denom == 0.0
    denom = np.where(constant, 1.0, denom)
    corr = (xc.T @ xc) / np.outer(denom, denom)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    corr[constant, :] = np.nan
    corr[:, constant] = np.nan
    return corr


# lower = cheaper to compute: the redundancy filter keeps the cheaper measure
_COST_RANK = {"s": 1, "snn": 2, "bc": 3, "mc": 4, "hc": 5, "so": 6, "sg": 7, "cfc": 8}
REDUNDANCY_THRESHOLD = 0.8


def redundancy_filter(corr, measures, threshold=REDUNDANCY_THRESHOLD):
    """Drop the costlier measure of every strongly correlated pair.

    Pairs with |rho| strictly above the threshold are visited in descending
    |rho|; when both members are still alive, the higher-cost one goes.  The
    result does not depend on the input ordering of the measures.
    """
    measures = tuple(measures)
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape != (len(measures), len(measures)):
        raise StructuralError("correlation matrix does not match the measure list")
    pairs = []
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            rho = corr[i, j]
            if np.isfinite(rho) and abs(rho) > threshold:
                ci, cj = _COST_RANK[measures[i]], _COST_RANK[measures[j]]
                pairs.append((-abs(rho), min(ci, cj), max(ci, cj), i, j))
    alive = set(measures)
    for _, _, _, i, j in sorted(pairs):
        mi, mj = measures[i], measures[j]
        if mi in alive and mj in alive:
            alive.discard(mi if _COST_RANK[mi] > _COST_RANK[mj] else mj)
    return [m for m in measures if m in alive]
