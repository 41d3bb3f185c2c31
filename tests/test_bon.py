"""Vocabulary learning, assignment, histograms, groups, and divergence."""

import json
import logging
import math

import numpy as np
import oracles
import pytest
from scipy.spatial.distance import jensenshannon

from neurotopo import bon
from neurotopo.bon import (
    PopulationRecord,
    Vocabulary,
    accuracy_groups,
    assign_rows,
    chord_knee,
    cross_benchmark_jsd,
    elbow_scan,
    jsd,
    kmeans,
    load_vocabulary,
    occurrence,
    read_occurrence_csv,
    save_vocabulary,
    write_occurrence_csv,
)
from neurotopo.centrality import MEASURE_ORDER, NeuronMeasures
from neurotopo.descriptors import FeatureMatrix, feature_matrix_from_values
from neurotopo.errors import FormatError, StructuralError


def planted_clusters(rng, centers, per_cluster, sigma):
    centers = np.asarray(centers, dtype=np.float64)
    rows = []
    for c in centers:
        rows.append(c + rng.normal(scale=sigma, size=(per_cluster, centers.shape[1])))
    return np.vstack(rows)


def fm_from(values, measures=("s", "bc")):
    return feature_matrix_from_values(values, measures)


def measures_table(network_id, values, measures=("s", "bc"), test_acc=0.5):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return NeuronMeasures(
        network_id=network_id,
        measures=tuple(measures),
        layer=np.ones(len(values), dtype=np.int64),
        neuron=np.arange(len(values), dtype=np.int64),
        values=values,
        test_acc=test_acc,
    )


class TestKmeans:
    def test_recovers_separated_clouds(self):
        rng = np.random.default_rng(0)
        data = planted_clusters(rng, [[0.0, 0.0], [1.0, 0.0]], 100, 0.01)
        fm = fm_from(data)
        vocab = kmeans(fm, 2, restarts=10, seed=1)
        raw_centers = vocab.centroids * vocab.normalizers
        raw_centers = raw_centers[np.argsort(raw_centers[:, 0])]
        assert np.abs(raw_centers - np.array([[0.0, 0.0], [1.0, 0.0]])).max() < 0.05

    def test_k_equals_rows_zero_inertia(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(6, 2))
        vocab = kmeans(fm_from(data), 6, restarts=3, seed=0)
        assert vocab.inertia == pytest.approx(0.0, abs=1e-24)

    def test_identical_points_degenerate(self):
        data = np.tile([[0.5, -0.25]], (8, 1))
        vocab = kmeans(fm_from(data), 2, restarts=3, seed=0)
        assert vocab.inertia == 0.0
        np.testing.assert_allclose(vocab.centroids * vocab.normalizers, [[0.5, -0.25]] * 2)

    def test_k_out_of_range(self):
        data = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(StructuralError, match="k must lie"):
            kmeans(fm_from(data), 5)
        with pytest.raises(StructuralError, match="k must lie"):
            kmeans(fm_from(data), 1)

    def test_inertia_trace_monotone(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(200, 3))
        _, traces = kmeans(
            fm_from(data, ("s", "bc", "sg")), 4, restarts=8, seed=3, return_traces=True
        )
        for trace in traces:
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-9)

    def test_best_of_restarts_not_worse_than_any_restart(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(60, 2))
        fm = fm_from(data)
        vocab, traces = kmeans(fm, 3, restarts=20, seed=5, return_traces=True)
        # every restart's last recorded inertia bounds its final inertia
        assert vocab.inertia <= min(trace[-1] for trace in traces) + 1e-12

    def test_centroids_sorted_by_strength(self):
        rng = np.random.default_rng(4)
        data = planted_clusters(rng, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], 50, 0.02)
        vocab = kmeans(fm_from(data), 3, restarts=5, seed=0)
        s_col = vocab.centroids[:, 0]
        assert np.all(np.diff(s_col) > 0)

    def test_same_seed_reproducible(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(80, 2))
        a = kmeans(fm_from(data), 3, restarts=4, seed=9)
        b = kmeans(fm_from(data), 3, restarts=4, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        fm = fm_from(np.random.default_rng(0).normal(size=(30, 2)))
        with pytest.raises(StructuralError, match="restarts"):
            kmeans(fm, 3, restarts=restarts)
        with pytest.raises(StructuralError, match="restarts"):
            elbow_scan(fm, 2, 4, restarts=restarts)

    def test_max_iter_hits_logged(self, caplog, monkeypatch):
        fm = fm_from(np.random.default_rng(6).normal(size=(120, 2)))
        monkeypatch.setattr(bon, "_MAX_ITER", 2)
        with caplog.at_level(logging.WARNING, logger="neurotopo.bon"):
            vocab = kmeans(fm, 4, restarts=5, seed=0)
        hits = oracles.kmeans_naive(fm.data, 4, 5, max_iter=2, seed=0)[3]
        assert vocab.max_iter_hits == hits > 0
        assert f"k=4: {hits} of 5 restarts stopped at max_iter=2" in caplog.text
        caplog.clear()
        monkeypatch.undo()
        with caplog.at_level(logging.WARNING, logger="neurotopo.bon"):
            assert kmeans(fm, 4, restarts=5, seed=0).max_iter_hits == 0
        assert caplog.text == ""


def assert_matches_oracle(fm, k, restarts, seed=0):
    vocab, traces = kmeans(fm, k, restarts=restarts, seed=seed, return_traces=True)
    centers, inertia, naive_traces, hits = oracles.kmeans_naive(
        fm.data, k, restarts, max_iter=bon._MAX_ITER, seed=seed
    )
    assert vocab.centroids.tobytes() == bon._sort_centroids(centers, fm.measures).tobytes()
    assert vocab.inertia == inertia
    assert traces == naive_traces
    assert vocab.max_iter_hits == hits
    return hits


class TestLockstepOracle:
    """The lockstep fit against restarts run one at a time, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_k_and_seeds(self, k, seed):
        data = np.random.default_rng(10 + seed).standard_t(3, size=(90, 3))
        assert_matches_oracle(fm_from(data, ("s", "bc", "sg")), k, 6, seed=seed)

    def test_eight_measures(self):
        # numpy sums 8 or more coordinates pairwise, not one by one
        data = np.random.default_rng(11).normal(size=(70, 8))
        fm = fm_from(data, ("s", "snn", "so", "sg", "mc", "bc", "hc", "cfc"))
        for k in (2, 5):
            assert_matches_oracle(fm, k, 4, seed=k)

    def test_duplicate_rows_revive_empty_clusters(self):
        # 3 distinct rows and k = 5: every restart seeds repeated centers,
        # whose clusters are empty and revived
        data = np.repeat(np.array([[0.0, 1.0], [1.0, 0.5], [0.25, -1.0]]), [9, 6, 5], axis=0)
        for seed in range(3):
            assert_matches_oracle(fm_from(data), 5, 5, seed=seed)

    def test_equal_inertia_goes_to_earliest_restart(self):
        # square corners, k = 2: the horizontal and the vertical split have
        # the same inertia, and with seed 0 restarts 0 and 4 find different ones
        fm = fm_from(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] * 3))
        fits = [oracles.lloyd_naive(fm.data, 2, np.random.default_rng(c), 1e-3, 300)
                for c in np.random.SeedSequence(0).spawn(6)]
        assert fits[0][1] == fits[4][1] == min(f[1] for f in fits)
        assert not np.array_equal(bon._sort_centroids(fits[0][0], fm.measures),
                                  bon._sort_centroids(fits[4][0], fm.measures))
        assert_matches_oracle(fm, 2, 6, seed=0)

    def test_max_iter_hit(self, monkeypatch):
        data = np.random.default_rng(12).normal(size=(80, 3))
        monkeypatch.setattr(bon, "_MAX_ITER", 3)
        hits = assert_matches_oracle(fm_from(data, ("s", "bc", "sg")), 6, 7, seed=2)
        assert hits > 0

    def test_weighted_picks_replay_choice(self):
        # 1,200 rows with zero entries (every 97th row all zero) against one
        # Generator.choice, or integers for an all-zero row, per row
        src = np.random.default_rng(14)
        weights = src.exponential(size=(1200, 40)) * (src.random((1200, 40)) < 0.6)
        weights[::97] = 0.0
        weights[5, :-1] = 0.0
        weights[6, 1:] = 0.0
        seeds = np.random.SeedSequence(15).spawn(len(weights))
        batched = [np.random.default_rng(s) for s in seeds]
        picks = bon._weighted_picks(weights, batched)
        lone = [np.random.default_rng(s) for s in seeds]
        want = [rng.choice(40, p=row / row.sum()) if row.sum() > 0.0 else rng.integers(40)
                for rng, row in zip(lone, weights)]
        assert picks.tolist() == want
        assert [rng.random() for rng in batched] == [rng.random() for rng in lone]

    def test_blocks_not_dividing_restarts(self, monkeypatch):
        data = np.random.default_rng(13).normal(size=(60, 2))
        k = 4
        monkeypatch.setattr(bon, "_BLOCK_BYTES", 3 * 8 * 60)  # blocks of 3 restarts
        assert_matches_oracle(fm_from(data), k, 10, seed=3)

    @pytest.mark.parametrize("d", [1, 3, 7, 8])
    def test_distance_summation_order(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-4, 4, size=d)
        centers = rng.normal(size=(2, 3, d))
        naive = ((x[:, np.newaxis, :] - centers[:, np.newaxis, :, :]) ** 2).sum(axis=-1)
        assert bon._squared_distances(x, centers).tobytes() == naive.transpose(0, 2, 1).tobytes()

    def test_nearest_centre_pass_matches_argmin_on_ties(self):
        # integer points and a repeated centre: many rows are equally near two centres
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, size=(60, 3)).astype(np.float64)
        centers = x[rng.integers(0, 60, size=(4, 6))]
        centers[:, 4] = centers[:, 1]
        labels, d2 = bon._nearest(x, centers)
        full = bon._squared_distances(x, centers)
        assert labels.tolist() == full.argmin(axis=1).tolist()
        assert d2.tobytes() == full.min(axis=1).tobytes()

    def test_nine_column_fit_refused(self):
        # eight distinct measures is the widest descriptor; a ninth column repeats one
        data = np.random.default_rng(9).normal(size=(30, 9))
        measures = ("s", "snn", "so", "sg", "mc", "bc", "hc", "cfc", "s")
        fm = FeatureMatrix(data=data, measures=measures, normalizers=np.ones(9), excluded_rows=0)
        with pytest.raises(StructuralError, match="repeated measures"):
            kmeans(fm, 3, restarts=2)


class TestElbow:
    def test_three_planted_clusters(self):
        rng = np.random.default_rng(0)
        data = planted_clusters(rng, [[0, 0], [1, 0], [0, 1]], 60, 0.02)
        result = elbow_scan(fm_from(data), 2, 8, restarts=5, seed=0)
        assert result.k_star == 3
        assert len(result.ks) == 7
        assert result.max_iter_hits.tolist() == [0] * 7

    def test_straight_line_low_confidence(self):
        k_star, dist, low = chord_knee(np.arange(2, 10), np.linspace(100.0, 20.0, 8))
        assert low
        assert dist.max() < 0.05
        assert 2 <= k_star <= 9

    def test_bad_range_rejected(self):
        data = np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(StructuralError, match="kmin"):
            elbow_scan(fm_from(data), 5, 5)

    def test_negative_seed_rejected(self):
        data = np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(StructuralError, match="seed must be >= 0, got -1"):
            elbow_scan(fm_from(data), 2, 4, restarts=2, seed=-1)
        with pytest.raises(StructuralError, match="seed must be >= 0, got -2"):
            kmeans(fm_from(data), 2, restarts=2, seed=-2)


class TestAssign:
    def vocab(self):
        centroids = np.array([[-0.4, 0.57, 0.11], [0.0, 0.8, 0.1], [0.3, 0.9, 0.2]])
        return Vocabulary(
            centroids=centroids,
            measures=("s", "bc", "sg"),
            normalizers=np.ones(3),
            inertia=0.0,
            k=3,
            seed=0,
        )

    def test_exact_centroid_match(self):
        vocab = self.vocab()
        assert assign_rows(vocab, [0.3, 0.9, 0.2]).tolist() == [3]

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[-1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        vocab = Vocabulary(
            centroids=centroids, measures=("s", "bc"), normalizers=np.ones(2), inertia=0.0, k=3, seed=0
        )
        assert assign_rows(vocab, [0.0, 0.0]).tolist() == [1]

    def test_benchmark_centroid_table_first_type(self):
        # normalized descriptor equal to the first row of a published-style
        # centroid table must land on type 1
        vocab = self.vocab()
        assert assign_rows(vocab, [-0.40, 0.57, 0.11]).tolist() == [1]

    def test_normalizer_consistency(self):
        # scaling raw values and normalizers together must not change the type
        vocab = self.vocab()
        scaled = Vocabulary(
            centroids=vocab.centroids,
            measures=vocab.measures,
            normalizers=np.array([10.0, 2.0, 0.5]),
            inertia=0.0,
            k=3,
            seed=0,
        )
        raw = np.array([-0.40, 0.57, 0.11])
        assert assign_rows(scaled, raw * np.array([10.0, 2.0, 0.5])).tolist() == [1]

    def test_matches_argmin_of_the_distances(self):
        # integer points and a repeated centre give ties; NaN rows get type 0
        rng = np.random.default_rng(6)
        for _ in range(20):
            k, d = int(rng.integers(2, 8)), int(rng.integers(1, 9))
            centroids = rng.integers(-2, 3, size=(k, d)).astype(np.float64)
            centroids[-1] = centroids[0]
            vocab = Vocabulary(centroids=centroids, measures=MEASURE_ORDER[:d], normalizers=np.ones(d),
                               inertia=0.0, k=k, seed=0)
            x = rng.integers(-3, 4, size=(60, d)).astype(np.float64)
            x[::7, int(rng.integers(d))] = np.nan
            ok = ~np.isnan(x).any(axis=1)
            want = np.zeros(60, dtype=np.int64)
            want[ok] = bon._squared_distances(x[ok], centroids).argmin(axis=0) + 1
            assert assign_rows(vocab, x).tolist() == want.tolist()


class TestOccurrence:
    def vocab(self):
        centroids = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        return Vocabulary(
            centroids=centroids, measures=("s", "bc"), normalizers=np.ones(2), inertia=0.0, k=6, seed=0
        )

    def test_all_one_type(self):
        t = measures_table("a", np.tile([[1.0, 0.0]], (300, 1)))
        freq = occurrence(self.vocab(), t)
        np.testing.assert_array_equal(freq, [0, 0, 1, 0, 0, 0])

    def test_even_split(self):
        rows = np.vstack([np.tile([[-1.0, 0.0]], (150, 1)), np.tile([[1.0, 0.0]], (150, 1))])
        freq = occurrence(self.vocab(), measures_table("a", rows))
        np.testing.assert_array_equal(freq, [0.5, 0, 0.5, 0, 0, 0])

    def test_undefined_rows_renormalized(self):
        rows = np.array([[1.0, 0.0], [math.nan, 0.0], [1.0, 0.0]])
        freq = occurrence(self.vocab(), measures_table("a", rows))
        np.testing.assert_array_equal(freq, [0, 0, 1, 0, 0, 0])
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_undefined_rejected(self):
        rows = np.full((3, 2), math.nan)
        with pytest.raises(StructuralError, match="undefined"):
            occurrence(self.vocab(), measures_table("a", rows))


class TestAccuracyGroups:
    def test_thousand_by_hundred(self):
        records = [(f"n{i:04d}", i / 1000.0) for i in range(1000)]
        worst, median, top = accuracy_groups(records, 100)
        assert worst == [f"n{i:04d}" for i in range(100)]
        assert median == [f"n{i:04d}" for i in range(450, 550)]
        assert top == [f"n{i:04d}" for i in range(900, 1000)]

    def test_nine_by_three(self):
        records = [(f"n{i}", float(i)) for i in range(9)]
        worst, median, top = accuracy_groups(records, 3)
        assert (worst, median, top) == (["n0", "n1", "n2"], ["n3", "n4", "n5"], ["n6", "n7", "n8"])

    def test_too_small_population(self):
        records = [(f"n{i}", float(i)) for i in range(6)]
        with pytest.raises(StructuralError, match="disjoint"):
            accuracy_groups(records, 3)

    def test_ties_break_by_id(self):
        records = [("b", 0.5), ("a", 0.5), ("c", 0.1), ("d", 0.9), ("e", 0.2), ("f", 0.8)]
        worst, median, top = accuracy_groups(records, 2)
        assert worst == ["c", "e"]
        assert median == ["a", "b"]

    def test_undefined_accuracy_refused(self):
        # NaN compares false both ways, so sorting would leave the input order
        records = [("a", 0.9), ("b", math.nan), ("c", 0.1), ("d", 0.5), ("e", math.nan), ("f", 0.2)]
        with pytest.raises(StructuralError, match=r"undefined test accuracy for networks \['b', 'e'\]"):
            accuracy_groups(records, 2)


class TestJsd:
    def test_identical_zero(self):
        assert jsd([0.25, 0.25, 0.5], [0.25, 0.25, 0.5]) == 0.0

    def test_disjoint_one(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_frozen_value(self):
        # independently computed from the definition (and scipy cross-check)
        assert jsd([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.1467931024360521, abs=1e-12)

    def test_matches_scipy(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            want = jensenshannon(p, q, base=2) ** 2
            assert jsd(p, q) == pytest.approx(want, abs=1e-10)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(500):
            k = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            a, b = jsd(p, q), jsd(q, p)
            assert a == b
            assert 0.0 <= a <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(StructuralError, match="shapes"):
            jsd([1.0], [0.5, 0.5])

    def test_not_normalized(self):
        with pytest.raises(StructuralError, match="histogram"):
            jsd([0.5, 0.6], [0.5, 0.5])


class TestCrossBenchmark:
    def vocabs(self):
        centroids = np.array([[-1.0, 0.0], [1.0, 0.0]])
        v1 = Vocabulary(centroids, ("s", "bc"), np.ones(2), 0.0, 2, 0, benchmark_id="one")
        v2 = Vocabulary(centroids.copy(), ("s", "bc"), np.ones(2), 0.0, 2, 0, benchmark_id="two")
        return v1, v2

    def test_own_population_zero(self):
        v1, v2 = self.vocabs()
        tables = [
            measures_table("a", [[-1.0, 0.0], [1.0, 0.0]]),
            measures_table("b", [[1.0, 0.0], [1.0, 0.0]]),
        ]
        result = cross_benchmark_jsd(v1, v2, tables)
        assert result.mean == 0.0 and result.std == 0.0

    def test_single_identical_networks(self):
        v1, v2 = self.vocabs()
        tables = [measures_table("a", [[1.0, 0.0]])]
        assert cross_benchmark_jsd(v1, v2, tables).mean == 0.0

    def test_measure_mismatch(self):
        v1, _ = self.vocabs()
        other = Vocabulary(np.zeros((2, 1)), ("sg",), np.ones(1), 0.0, 2, 0)
        with pytest.raises(StructuralError, match="measure"):
            cross_benchmark_jsd(v1, other, [])


class TestVocabularyIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 3))
        vocab = kmeans(feature_matrix_from_values(data, ("s", "bc", "sg")), 4, restarts=3, seed=7)
        p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
        save_vocabulary(vocab, p1)
        save_vocabulary(load_vocabulary(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "normalizers, centroids",
        [
            ([1.0], [[0.0, 0.0], [1.0, 1.0]]),
            ([1.0, 0.0], [[0.0, 0.0], [1.0, 1.0]]),
            ([1.0, math.inf], [[0.0, 0.0], [1.0, 1.0]]),
            ([1.0, 1.0], [[0.0, math.nan], [1.0, 1.0]]),
        ],
    )
    def test_malformed_vocabulary_rejected(self, normalizers, centroids):
        with pytest.raises(StructuralError):
            Vocabulary(np.array(centroids), ("s", "bc"), np.array(normalizers), 0.0, 2, 0)

    @pytest.mark.parametrize("measures", [["zz", "bc"], ["s", "s"], {"s": 1}, "s"])
    def test_bad_measure_list_rejected(self, tmp_path, measures):
        # iterated, the object gives its keys and the string its characters: the valid ("s",)
        width = len(tuple(measures))
        if isinstance(measures, list):
            with pytest.raises(StructuralError, match="measures"):
                Vocabulary(np.zeros((2, width)), tuple(measures), np.ones(width), 0.0, 2, 0)
        path = tmp_path / "v.json"
        doc = {"measures": measures, "normalizers": [1.0] * width, "k": 2,
               "centroids": [[0.0] * width, [1.0] * width], "inertia": 0.0, "seed": 0}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="v.json: bad vocabulary file .*measures"):
            load_vocabulary(path)

    @staticmethod
    def vocabulary_doc(**changes):
        doc = {"measures": ["s", "bc"], "normalizers": [1.0, 1.0], "k": 2,
               "centroids": [[0.0, 0.0], [1.0, 1.0]], "inertia": 0.5, "seed": 3}
        return doc | changes

    @pytest.mark.parametrize(
        "changes",
        [{"k": 2.0}, {"k": "2"}, {"k": True}, {"seed": 1.7}, {"seed": "3"}, {"seed": False},
         {"inertia": "2.5"}, {"inertia": True}, {"benchmark_id": 5}, {"generator": "mt19937"}],
    )
    def test_fields_the_writer_never_writes_rejected(self, tmp_path, changes):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(self.vocabulary_doc(**changes)))
        with pytest.raises(FormatError, match="v.json: bad vocabulary file"):
            load_vocabulary(path)

    @pytest.mark.parametrize(
        "changes",
        [{"normalizers": ["1.0", True]}, {"normalizers": [1.0, 1]}, {"normalizers": [1.0, None]},
         {"normalizers": "1.0"}, {"centroids": [["0.0", 0.0], [1.0, 1.0]]},
         {"centroids": [[0.0, False], [1.0, 1.0]]}, {"centroids": [[0.0, 0], [1.0, 1.0]]},
         {"centroids": [[0.0, [0.0]], [1.0, 1.0]]}],
    )
    def test_numbers_that_are_no_json_floats_rejected(self, tmp_path, changes):
        # numpy would read each of these as a float; save_vocabulary writes floats only
        path = tmp_path / "v.json"
        path.write_text(json.dumps(self.vocabulary_doc(**changes)))
        key = next(iter(changes))
        with pytest.raises(FormatError, match=f"v.json: bad vocabulary file \\({key}: expected JSON floats"):
            load_vocabulary(path)

    @pytest.mark.parametrize("changes", [{"seed": -5}, {"inertia": -3.0}, {"seed": -5, "inertia": -3.0}])
    def test_negative_seed_or_inertia_rejected(self, tmp_path, changes):
        # no fit produces either: kmeans refuses a negative seed, and inertia is a sum of squares
        path = tmp_path / "v.json"
        path.write_text(json.dumps(self.vocabulary_doc(**changes)))
        with pytest.raises(FormatError, match="v.json: bad vocabulary file .*seed and inertia must be >= 0"):
            load_vocabulary(path)

    def test_overflowing_inertia_rejected(self, tmp_path):
        # json reads 1e999 as an infinity, which save_vocabulary cannot write
        path = tmp_path / "v.json"
        path.write_text(json.dumps(self.vocabulary_doc()).replace('"inertia": 0.5', '"inertia": 1e999'))
        with pytest.raises(FormatError, match=r"v.json: bad vocabulary file \(inertia must be finite, got inf\)"):
            load_vocabulary(path)

    def test_id_keys_optional(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(self.vocabulary_doc(inertia=1)))
        vocab = load_vocabulary(path)
        assert (vocab.benchmark_id, vocab.inertia, vocab.k, vocab.seed) == ("", 1.0, 2, 3)
        path.write_text(json.dumps(self.vocabulary_doc(benchmark_id="b", generator="numpy-pcg64")))
        assert load_vocabulary(path).benchmark_id == "b"

    def test_document_key_set(self, tmp_path):
        vocab = Vocabulary(np.array([[-1.0], [1.0]]), ("s",), np.ones(1), 0.5, 2, 3,
                           benchmark_id="b")
        path = tmp_path / "v.json"
        save_vocabulary(vocab, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"measures", "normalizers", "k", "centroids", "inertia",
                            "seed", "generator", "benchmark_id"}
        assert doc["generator"] == "numpy-pcg64"

    def test_occurrence_csv_round_trip(self, tmp_path):
        vocab = Vocabulary(np.array([[-1.0], [1.0]]), ("s",), np.ones(1), 0.0, 2, 0)
        rows = [
            PopulationRecord("a", 0.75, np.array([0.25, 0.75])),
            PopulationRecord("b", math.nan, np.array([1.0, 0.0])),
            PopulationRecord("c", np.float64(0.5), np.array([0.5, 0.5])),
            PopulationRecord("d", 1.0, np.array([0.5, 0.5])),
            PopulationRecord("e", 0.0, np.array([0.5, 0.5])),
        ]
        path = tmp_path / "occ.csv"
        write_occurrence_csv(vocab, rows, path)
        back = read_occurrence_csv(path)
        assert back[0].network_id == "a"
        np.testing.assert_array_equal(back[0].occurrence, [0.25, 0.75])
        assert math.isnan(back[1].test_acc)
        assert back[2].test_acc == 0.5
        assert [r.test_acc for r in back[3:]] == [1.0, 0.0]

    @pytest.mark.parametrize(
        "text",
        ["network_id,test_acc,zz,yy\nb,0.5,-0.2,0.1\n", "network_id,test_acc,zz,yy\nb,0.5,0.5,0.5\n",
         "network_id,test_acc,f2,f1\nb,0.5,0.5,0.5\n", "network_id,test_acc,f1\nb,0.5,1.0\n"],
    )
    def test_occurrence_csv_header_must_be_f1_to_fk(self, tmp_path, text):
        path = tmp_path / "occ.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match="occ.csv: header must be network_id,test_acc,f1..fk"):
            read_occurrence_csv(path)

    @pytest.mark.parametrize(
        "row",
        ["b,inf,0.5,0.5", "b,0.5,nan,0.5", "b,0.5, 0.5,0.5", "b,0.5,0.50,0.5",
         "b,0.5,-0.2,1.2", "b,0.5,0.5,0.4", "b,0.5,0.5,0.5000001", "b,0.5,NaN,1.0",
         "b,7.5,0.5,0.5", "b,-0.25,0.5,0.5", "b,1.0000000000000002,0.5,0.5"],
    )
    def test_occurrence_csv_rejects_cells_the_writer_never_writes(self, tmp_path, row):
        path = tmp_path / "occ.csv"
        path.write_text(f"network_id,test_acc,f1,f2\na,NaN,0.25,0.75\n{row}\n")
        with pytest.raises(FormatError, match="occ.csv:3: "):
            read_occurrence_csv(path)

    def test_occurrence_csv_rejects_a_repeated_network_id(self, tmp_path):
        path = tmp_path / "occ.csv"
        path.write_text("network_id,test_acc,f1,f2\nseed0,0.5,0.5,0.5\nseed1,0.6,0.25,0.75\n"
                        "seed0,0.7,1.0,0.0\n")
        with pytest.raises(FormatError, match="occ.csv:4: network id 'seed0' repeats line 2"):
            read_occurrence_csv(path)

    def test_occurrence_csv_needs_a_row(self, tmp_path):
        path = tmp_path / "occ.csv"
        path.write_text("network_id,test_acc,f1,f2\n")
        with pytest.raises(FormatError, match="occ.csv: no occurrence rows"):
            read_occurrence_csv(path)
