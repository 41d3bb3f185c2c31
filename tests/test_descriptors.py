"""Layer means, scatter points, feature matrix, Pearson filter."""

import logging
import math

import numpy as np
import pytest

from neurotopo.centrality import NeuronMeasures
from neurotopo.descriptors import (
    build_feature_matrix,
    feature_matrix_from_values,
    layer_mean,
    pearson_matrix,
    redundancy_filter,
    scatter_points,
)
from neurotopo.errors import StructuralError


def table(network_id, layers, values, measures=("s",), test_acc=0.5):
    layers = np.asarray(layers)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    neuron = np.concatenate([np.arange(np.sum(layers == l)) for l in sorted(set(layers.tolist()))])
    return NeuronMeasures(
        network_id=network_id,
        measures=tuple(measures),
        layer=layers,
        neuron=neuron,
        values=values,
        test_acc=test_acc,
    )


class TestLayerMean:
    def test_simple_mean(self):
        t = table("a", [1, 1, 1], [1.0, 2.0, 3.0])
        assert layer_mean(t, "s", 1) == (2.0, 0)

    def test_constant_layer(self):
        t = table("a", [1, 1], [4.2, 4.2])
        assert layer_mean(t, "s", 1).value == 4.2

    def test_nan_skipped_with_count(self):
        t = table("a", [1, 1, 1], [0.3, math.nan, 0.5])
        mean, skipped = layer_mean(t, "s", 1)
        assert mean == pytest.approx(0.4)
        assert skipped == 1

    def test_all_undefined_flagged(self):
        t = table("a", [1, 1], [math.nan, math.nan])
        mean, skipped = layer_mean(t, "s", 1)
        assert math.isnan(mean)
        assert skipped == 2

    def test_permutation_invariant(self):
        vals = [0.1, -0.7, 0.4, 2.0]
        a = layer_mean(table("a", [1] * 4, vals), "s", 1).value
        b = layer_mean(table("a", [1] * 4, vals[::-1]), "s", 1).value
        assert a == pytest.approx(b, abs=1e-15)


class TestScatterPoints:
    def test_single_network(self):
        t = table("a", [1, 1, 2], [1.0, 3.0, 5.0], test_acc=0.9)
        pts = scatter_points([t], "s")
        assert len(pts) == 1
        assert pts[0] == ("a", 2.0, 5.0, 0.9)

    def test_identical_networks_identical_points(self):
        t1 = table("a", [1, 2], [1.0, 2.0])
        t2 = table("b", [1, 2], [1.0, 2.0])
        pts = scatter_points([t1, t2], "s")
        assert (pts[0].x, pts[0].y) == (pts[1].x, pts[1].y)

    def test_wrong_layer_count_rejected(self):
        t = table("a", [1, 2, 3], [1.0, 2.0, 3.0])
        with pytest.raises(StructuralError, match="hidden layers"):
            scatter_points([t], "s")


class TestFeatureMatrix:
    def test_row_count(self):
        measures = ("s", "bc", "sg")
        tables = [
            table(nid, [1, 1, 2, 2], np.arange(12).reshape(4, 3) + 1.0, measures)
            for nid in ("a", "b")
        ]
        fm = build_feature_matrix(tables, measures)
        assert fm.data.shape == (8, 3)

    def test_max_abs_normalization(self):
        t = table("a", [1, 1], [-4.0, 2.0])
        fm = build_feature_matrix([t], ("s",))
        np.testing.assert_allclose(fm.data[:, 0], [-1.0, 0.5])
        assert fm.normalizers[0] == 4.0

    def test_zero_column_left_unscaled(self, caplog):
        measures = ("s", "bc")
        raw = np.array([[0.0, 2.0], [math.nan, 1.0], [0.0, -4.0]])
        built = []
        for make in (
            lambda: build_feature_matrix([table("a", [1, 1, 1], raw, measures)], measures),
            lambda: feature_matrix_from_values(raw, measures),
        ):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                built.append(make())
            assert "all-zero" in caplog.text
        for fm in built:
            np.testing.assert_array_equal(fm.data, [[0.0, 0.5], [0.0, -1.0]])
            np.testing.assert_array_equal(fm.normalizers, [1.0, 4.0])
            assert fm.excluded_rows == 1

    def test_undefined_rows_excluded(self):
        t = table("a", [1, 1, 1], [1.0, math.nan, 3.0])
        fm = build_feature_matrix([t], ("s",))
        assert fm.excluded_rows == 1
        assert fm.data.shape == (2, 1)

    def test_denormalization_recovers_raw(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(10, 2))
        t = table("a", [1] * 10, vals, measures=("s", "bc"))
        fm = build_feature_matrix([t], ("s", "bc"))
        np.testing.assert_allclose(fm.data * fm.normalizers, vals, atol=1e-12)

    def test_assembly_order_network_ascending(self):
        ta = table("b", [1, 2], [1.0, 2.0])
        tb = table("a", [1, 2], [3.0, 4.0])
        fm = build_feature_matrix([ta, tb], ("s",))
        assert fm.data[:, 0].tolist() == [0.75, 1.0, 0.25, 0.5]  # a's rows, then b's

    @pytest.mark.parametrize("measures", [(), ("s", "zz"), ("s", "s")])
    def test_bad_measure_list_rejected(self, measures):
        raw = np.ones((3, len(measures)))
        with pytest.raises(StructuralError, match="measure"):
            feature_matrix_from_values(raw, measures)
        with pytest.raises(StructuralError, match="measure"):
            build_feature_matrix([table("a", [1, 1, 1], raw, measures)], measures)

    def test_architecture_mismatch_rejected(self):
        ta = table("a", [1, 2], [1.0, 2.0])
        tb = table("b", [1, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(StructuralError, match="architecture"):
            build_feature_matrix([ta, tb], ("s",))


class TestPearson:
    def test_duplicated_column(self):
        x = np.random.default_rng(0).normal(size=100)
        corr = pearson_matrix(np.column_stack([x, x]))
        assert corr[0, 1] == pytest.approx(1.0)

    def test_negated_column(self):
        x = np.random.default_rng(0).normal(size=100)
        corr = pearson_matrix(np.column_stack([x, -x]))
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(1)
        corr = pearson_matrix(rng.uniform(size=(10_000, 2)))
        assert abs(corr[0, 1]) < 0.05

    def test_constant_column_flagged(self):
        x = np.random.default_rng(0).normal(size=50)
        corr = pearson_matrix(np.column_stack([x, np.full(50, 3.0)]))
        assert math.isnan(corr[0, 1]) and math.isnan(corr[1, 1])
        assert corr[0, 0] == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(500, 3))
        scaled = x * np.array([2.0, 5.0, 0.1]) + np.array([1.0, -3.0, 0.0])
        np.testing.assert_allclose(pearson_matrix(x), pearson_matrix(scaled), atol=1e-12)


class TestRedundancyFilter:
    def _engineered_corr(self):
        # s-so 0.9, s-mc 0.85, so-mc 0.82, everything else low
        measures = ("s", "so", "mc", "bc")
        corr = np.eye(4)
        corr[0, 1] = corr[1, 0] = 0.9
        corr[0, 2] = corr[2, 0] = 0.85
        corr[1, 2] = corr[2, 1] = 0.82
        return corr, measures

    def test_keeps_cheapest_of_correlated_triple(self):
        corr, measures = self._engineered_corr()
        kept = redundancy_filter(corr, measures)
        assert kept == ["s", "bc"]

    def test_identity_keeps_all(self):
        measures = ("s", "snn", "bc")
        kept = redundancy_filter(np.eye(3), measures)
        assert kept == list(measures)

    def test_threshold_is_strict(self):
        corr = np.array([[1.0, 0.79], [0.79, 1.0]])
        assert redundancy_filter(corr, ("s", "so")) == ["s", "so"]

    def test_order_independence(self):
        corr, measures = self._engineered_corr()
        perm = [2, 0, 3, 1]
        corr_p = corr[np.ix_(perm, perm)]
        measures_p = tuple(measures[i] for i in perm)
        kept_p = redundancy_filter(corr_p, measures_p)
        assert sorted(kept_p) == sorted(redundancy_filter(corr, measures))
