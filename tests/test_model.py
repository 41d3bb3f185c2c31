"""Graph construction, thresholded views, components, and serialization."""

import contextlib
import dataclasses
import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import layered_graph, ones_graph
from oracles import build_graph_dense, dense_graph_view, largest_component_naive, model_file_naive, positive_part
from neurotopo import artifacts, model
from neurotopo.artifacts import JSON_FLOATS_PER_CALL
from neurotopo.errors import FormatError, StructuralError
from neurotopo.model import (
    ALL,
    VIEW_ORIGINAL,
    VIEW_MODES,
    VIEW_POSITIVE,
    GraphView,
    LayeredNetwork,
    build_graph,
    largest_component,
    load_model,
    save_model,
    threshold_view,
)
from neurotopo.trainer import init_network


def edge_net(arch):
    """A network whose every other weight cycles through edge-case floats,
    with unicode and nested values in its meta."""
    edge = [-0.0, 5e-324, 1e-05, 0.1, 1e16, -1.7976931348623157e308]
    net = init_network(arch, seed=5, dataset_id="ds")
    weights = []
    for w in net.weights:
        w = w.copy()
        w.reshape(-1)[::2] = np.resize(edge, (w.size + 1) // 2)  # every other weight, cycled
        weights.append(w)
    meta = dict(net.meta, notes={"schedule": ["flat", {"ëta": 0.01, "ζ": None}]}, **{"ключ": "значение €"})
    return LayeredNetwork(arch=net.arch, weights=tuple(weights), meta=meta)


@contextlib.contextmanager
def reads_of(size, monkeypatch):
    """Model files read ``size`` characters at a time, whatever the reader asks for."""
    reading = artifacts._reading

    class Short:
        def __init__(self, fh):
            self.read = lambda n=-1: fh.read(n if n < 0 else min(n, size))
            self.fileno = fh.fileno

    @contextlib.contextmanager
    def short(path):
        with reading(path) as fh:
            yield Short(fh)

    with monkeypatch.context() as m:
        m.setattr(artifacts, "_reading", short)
        yield


def assert_same_network(got, want):
    assert got.arch == want.arch and got.meta == want.meta
    assert [w.tobytes() for w in got.weights] == [w.tobytes() for w in want.weights]


def full(view, mask=False):
    """The view's N×N weights, or its edge mask."""
    return view.block(ALL, ALL, mask=mask)


def toy_net(arch, fill=0.5):
    weights = tuple(np.full((arch[a], arch[a + 1]), fill) for a in range(len(arch) - 1))
    return LayeredNetwork(arch=arch, weights=weights)


class TestLayeredNetwork:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError, match=r"weights\[0\]"):
            LayeredNetwork(arch=(3, 2), weights=(np.zeros((3, 3)),))

    def test_wrong_matrix_count_rejected(self):
        with pytest.raises(StructuralError, match="weight matrices"):
            LayeredNetwork(arch=(3, 2), weights=(np.zeros((3, 2)), np.zeros((2, 2))))

    def test_non_finite_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(StructuralError, match="non-finite"):
            LayeredNetwork(arch=(2, 2), weights=(w,))

    @pytest.mark.parametrize("arch, weights, message", [
        ((), (), "arch must list"),
        ((3,), (), "arch must list"),
        ((3, 0), (np.zeros((3, 0)),), "arch must list"),
        ((3, -2), (), "arch must list"),
        ((3, 2, 1), (np.zeros((3, 2)),), "expected 2 weight matrices"),
        ((3, 2), (), "expected 1 weight matrices"),
        ((3, 2), (np.zeros((2, 3)),), r"weights\[0\]: expected shape \(3, 2\), got \(2, 3\)"),
        ((3, 2), (np.zeros(6),), r"weights\[0\]: expected shape"),
        ((3, 2), (np.zeros((3, 2, 1)),), r"weights\[0\]: expected shape"),
        ((2, 3, 1), (np.zeros((2, 3)), np.zeros((3, 2))), r"weights\[1\]: expected shape \(3, 1\)"),
        ((2, 2), ([[0.0, np.nan], [0.0, 0.0]],), r"weights\[0\]: non-finite"),
        ((2, 2), ([[0.0, 0.0], [-np.inf, 0.0]],), r"weights\[0\]: non-finite"),
        ((2, 2, 1), (np.zeros((2, 2)), [[0.0], [np.inf]]), r"weights\[1\]: non-finite"),
    ], ids=["no layer", "one layer", "empty layer", "negative layer size", "too few matrices",
            "no matrix", "transposed matrix", "one-dimensional matrix", "three-dimensional matrix",
            "later matrix shape", "nan", "negative infinity", "later matrix non-finite"])
    def test_refuses(self, arch, weights, message):
        # arrays from outside enter the library only through this constructor
        with pytest.raises(StructuralError, match=message):
            LayeredNetwork(arch=arch, weights=weights)

    def test_weights_are_frozen(self):
        net = toy_net((2, 2))
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 1.0


class TestGraphView:
    def test_largest_component_of_a_one_block_view(self):
        net = LayeredNetwork(arch=(1, 1, 1, 1), weights=([[1.0]], [[0.5]], [[-1.0]]))
        v = threshold_view(dense_graph_view(net), VIEW_POSITIVE)
        keep, comp = largest_component(v)
        assert keep.tolist() == [0, 1, 2] and comp.sizes == (3,)
        np.testing.assert_array_equal(full(comp, mask=True), full(v, mask=True)[:3, :3])
        np.testing.assert_array_equal(full(comp), full(v)[:3, :3])

    def test_model_defines_one_graph_class(self):
        classes = [name for name, obj in vars(model).items()
                   if dataclasses.is_dataclass(obj) and obj.__module__ == model.__name__]
        assert sorted(classes) == ["GraphView", "LayeredNetwork"]
        assert not hasattr(model, "NeuronGraph")


class TestBuildGraph:
    @pytest.mark.parametrize("arch", [(1, 1), (4, 3, 2), (784, 32, 16, 10)])
    def test_passes_the_checks_and_is_read_only(self, arch):
        g = build_graph(init_network(arch, seed=2))
        w, m = full(g), full(g, mask=True)
        assert np.array_equal(w, w.T) and np.array_equal(m, m.T) and not np.diag(m).any()
        assert np.all(w[~m] == 0.0) and g.layers.shape == (g.node_count,) and g.layers.dtype == np.int64
        for a in (g.layers, *(x for block in g.blocks for x in block[2:])):
            assert not a.flags.writeable

    def test_paper_architecture_counts(self):
        net = init_network((784, 200, 100, 10), seed=0)
        g = build_graph(net)
        assert g.node_count == 1094
        assert g.edge_count == 177800

    def test_tiny_counts_and_weights(self):
        g = build_graph(toy_net((2, 2, 1), fill=0.5))
        assert g.node_count == 5
        assert g.edge_count == 6
        assert np.all(full(g)[full(g, mask=True)] == 0.5)

    def test_single_edge(self):
        g = build_graph(toy_net((1, 1), fill=-0.3))
        assert g.node_count == 2
        assert g.edge_count == 1
        assert full(g)[0, 1] == -0.3

    def test_edge_multiset_matches_weight_entries(self):
        net = init_network((4, 3, 2), seed=5)
        g = build_graph(net)
        upper = np.triu(full(g, mask=True))
        graph_values = np.sort(full(g)[upper])
        raw_values = np.sort(np.concatenate([w.reshape(-1) for w in net.weights]))
        np.testing.assert_array_equal(graph_values, raw_values)

    def test_layered_bipartite(self):
        g = build_graph(init_network((3, 4, 2), seed=1))
        rows, cols = np.nonzero(full(g, mask=True))
        assert np.all(np.abs(g.layers[rows] - g.layers[cols]) == 1)


class TestThresholdView:
    def test_mixed_signs(self):
        g = layered_graph((1, 1, 1, 1), [[1.0]], [[-1.0]], [[0.2]])
        v = threshold_view(g, VIEW_POSITIVE)
        assert v.edge_count == 2

    def test_all_negative_leaves_isolated_nodes(self):
        g = layered_graph((1, 1, 1), [[-1.0]], [[-0.5]])
        v = threshold_view(g, VIEW_POSITIVE)
        assert v.edge_count == 0
        assert v.node_count == 3

    def test_zero_weight_excluded(self):
        g = layered_graph((1, 1), [[0.0]])
        assert threshold_view(g, VIEW_POSITIVE).edge_count == 0
        assert threshold_view(g, VIEW_ORIGINAL).edge_count == 1

    def test_positive_count_complements_nonpositive(self):
        net = init_network((5, 4, 3), seed=3)
        g = build_graph(net)
        v = threshold_view(g, VIEW_POSITIVE)
        nonpositive = sum(int(np.sum(w <= 0.0)) for w in net.weights)
        assert v.edge_count + nonpositive == sum(w.size for w in net.weights)

    def test_original_mode_is_the_view_itself(self):
        g = ones_graph((1, 1, 1))
        assert threshold_view(g, VIEW_ORIGINAL) is g

    def test_positive_view_of_a_component_keeps_its_nodes(self):
        keep, comp = largest_component(layered_graph((1, 1, 1, 1), [[1.0]], [[-1.0]], [[0.5]]))
        v = threshold_view(comp, VIEW_POSITIVE)
        assert keep.tolist() == [0, 1, 2, 3]
        assert v.node_count == 4
        assert v.edge_count == 2

    def test_unknown_mode(self):
        g = ones_graph((1, 1))
        with pytest.raises(StructuralError, match="view mode"):
            threshold_view(g, "negative")

    def test_two_modes_of_three_fields(self):
        assert VIEW_MODES == (VIEW_ORIGINAL, VIEW_POSITIVE)
        assert [f.name for f in dataclasses.fields(GraphView)] == ["sizes", "blocks", "layers"]

    def test_positive_view_keeps_weights_and_layer_tags(self):
        g = build_graph(LayeredNetwork(arch=(2, 1), weights=(np.array([[0.7], [-0.4]]),)))
        v = threshold_view(g, VIEW_POSITIVE)
        np.testing.assert_array_equal(full(v), [[0.0, 0.0, 0.7], [0.0, 0.0, 0.0], [0.7, 0.0, 0.0]])
        np.testing.assert_array_equal(v.layers, [0, 0, 1])


class TestLargestComponent:
    def test_connected_graph_unchanged(self):
        g = ones_graph((1, 1, 1))
        keep, comp = largest_component(threshold_view(g, VIEW_ORIGINAL))
        assert keep.tolist() == [0, 1, 2]
        assert comp.edge_count == 2

    def test_connected_view_is_not_copied(self):
        v = threshold_view(ones_graph((1, 1, 1)), VIEW_ORIGINAL)
        assert largest_component(v)[1] is v

    def test_two_components(self):
        g = layered_graph((2, 3), [[1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        keep, comp = largest_component(threshold_view(g, VIEW_POSITIVE))
        assert keep.tolist() == [0, 2, 3]
        assert comp.node_count == 3 and comp.edge_count == 2

    def test_size_tie_takes_smallest_node_id(self):
        g = layered_graph((2, 2), [[-1.0, 1.0], [1.0, -1.0]])
        keep, _ = largest_component(threshold_view(g, VIEW_POSITIVE))
        assert keep.tolist() == [0, 3]

    def test_component_keeps_its_layer_tags(self):
        g = build_graph(LayeredNetwork(arch=(2, 2), weights=(np.array([[0.5, -1.0], [-1.0, 0.5]]),)))
        keep, comp = largest_component(threshold_view(g, VIEW_POSITIVE))
        assert keep.tolist() == [0, 2]
        assert comp.layers.tolist() == [0, 1]
        for a in (comp.layers, *(x for block in comp.blocks for x in block[2:])):
            assert not a.flags.writeable

    def test_empty_edge_set_flagged(self):
        g = layered_graph((1, 2), [[-1.0, 0.0]])
        keep, comp = largest_component(threshold_view(g, VIEW_POSITIVE))
        assert keep.tolist() == [0]
        assert comp.node_count == 1 and comp.edge_count == 0

    @staticmethod
    def sparse_layered(rng):
        """A layered net of 2-15 neurons in 2-5 layers whose positive view keeps
        each synapse with one probability of 0.05, 0.15, 0.3 or 0.5, so that
        components are many and small and their sizes often tie."""
        n = int(rng.integers(2, 16))
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, min(n, 5))), replace=False))
        arch = np.diff([0, *cuts, n]).tolist()
        p = rng.choice([0.05, 0.15, 0.3, 0.5])
        weights = [np.where(rng.random((a, b)) < p, rng.uniform(0.1, 1.0, size=(a, b)), -1.0)
                   for a, b in zip(arch, arch[1:])]
        return LayeredNetwork(arch=tuple(arch), weights=weights)

    # 16 of these 60 views have no edge, 23 have a tie for the largest size and 1 is one component
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_breadth_first_search(self, seed):
        net = self.sparse_layered(np.random.default_rng(seed))
        weights, mask = positive_part(*build_graph_dense(net)[:2])
        v = threshold_view(build_graph(net), VIEW_POSITIVE)
        keep, comp = largest_component(v)
        want = largest_component_naive(mask)
        assert keep.tolist() == want
        assert (comp is v) == (len(want) == v.node_count)
        np.testing.assert_array_equal(full(comp, mask=True), mask[np.ix_(want, want)])
        np.testing.assert_array_equal(full(comp), weights[np.ix_(want, want)])

    @pytest.mark.parametrize("seed", range(20))
    def test_component_labels_match_scipy(self, seed):
        net = self.sparse_layered(np.random.default_rng(100 + seed))
        _, mask = positive_part(*build_graph_dense(net)[:2])
        _, want = connected_components(csr_matrix(mask), directed=False)
        np.testing.assert_array_equal(threshold_view(build_graph(net), VIEW_POSITIVE).labels, want)


def _block_nets():
    """Toy, 4,3,2, desk and paper nets, and one with zero-weight synapses and
    a hidden neuron isolated in the positive view."""
    nets = [toy_net((2, 2, 1)), init_network((4, 3, 2), seed=5), init_network((784, 32, 16, 10), seed=1),
            init_network((784, 200, 100, 10), seed=1)]
    w = [np.array(x) for x in init_network((12, 6, 5, 3), seed=2).weights]
    w[0][::3, ::2] = 0.0
    w[0][:, 2] = -np.abs(w[0][:, 2])
    w[1][2, :] = -np.abs(w[1][2, :])
    return nets + [LayeredNetwork(arch=(12, 6, 5, 3), weights=w)]


class TestBlockStorage:
    """Block views against the dense N×N graph, bit for bit."""

    @pytest.mark.parametrize("net", _block_nets())
    def test_dense_arrays_views_and_components_match(self, net):
        weights, mask, layers = build_graph_dense(net)
        g, dense = build_graph(net), dense_graph_view(net)
        assert full(g).tobytes() == weights.tobytes() and full(g, mask=True).tobytes() == mask.tobytes()
        assert g.edge_count == dense.edge_count and g.node_count == dense.node_count
        for mode in VIEW_MODES:
            v, d = threshold_view(g, mode), threshold_view(dense, mode)
            assert full(v).tobytes() == full(d).tobytes()
            assert full(v, mask=True).tobytes() == full(d, mask=True).tobytes()
            assert v.edge_count == d.edge_count
            (keep, comp), (want_keep, want) = largest_component(v), largest_component(d)
            assert keep.tolist() == want_keep.tolist()
            assert full(comp).tobytes() == full(want).tobytes()
            assert full(comp, mask=True).tobytes() == full(want, mask=True).tobytes()
            assert comp.layers.tolist() == want.layers.tolist()

    @pytest.mark.parametrize("net", _block_nets())
    def test_block_matches_dense_positions(self, net):
        rng = np.random.default_rng(sum(net.arch))
        v = threshold_view(build_graph(net), VIEW_POSITIVE)
        dense = threshold_view(dense_graph_view(net), VIEW_POSITIVE)
        (_, _, weights, mask), = dense.blocks
        n = v.node_count
        picks = [np.sort(rng.choice(n, size=rng.integers(0, n + 1), replace=False)) for _ in range(4)]
        picks += [rng.integers(0, n, size=rng.integers(1, 2 * n)) for _ in range(4)]  # unsorted, repeats
        picks += [slice(None), slice(1, n - 1), slice(n // 2, n)]
        # runs inside one group, and runs in two groups with a gap, in and out of order: copied as slices
        off = v.offsets
        runs = [np.arange(off[1], off[2] - 1), np.r_[0 : off[1] - 1, off[1] + 1 : off[2]], np.r_[off[-2] : n, 0:1]]
        assert all(isinstance(x, slice) for pos in runs for part in model._split(pos, n, off)[1] if part for x in part)
        picks += runs
        for rows in picks:
            for cols in picks[::-1]:
                w, m = v.block(rows, cols), v.block(rows, cols, mask=True)
                at = np.ix_(np.arange(n)[rows], np.arange(n)[cols])
                assert w.tobytes() == weights[at].tobytes() and m.tobytes() == mask[at].tobytes()
                assert not w.flags.writeable and not m.flags.writeable

    def test_build_graph_shares_the_networks_arrays(self):
        net = init_network((784, 200, 100, 10), seed=1)
        g = build_graph(net)
        assert g.sizes == net.arch and len(g.blocks) == net.depth
        for (a, b, w, m), weights in zip(g.blocks, net.weights):
            assert b == a + 1 and w is weights and np.shares_memory(w, weights)
            assert m.shape == w.shape and m.all() and not m.flags.writeable


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network((784, 200, 100, 10), seed=11, dataset_id="bench")
        path = tmp_path / "model.json"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.arch == net.arch
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        second = tmp_path / "model2.json"
        save_model(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "arch",
        [(1, 1), (JSON_FLOATS_PER_CALL - 1, 1, 1), (JSON_FLOATS_PER_CALL, 1, 1),
         (1, JSON_FLOATS_PER_CALL + 1, 1), (2, JSON_FLOATS_PER_CALL + 1, 3),
         (5, 3, 2), (784, 32, 16, 10), (784, 200, 100, 10)],
    )
    def test_bytes_match_one_json_dumps_of_the_document(self, tmp_path, arch):
        net = edge_net(arch)
        path = tmp_path / "m.json"
        save_model(net, path)
        assert path.read_bytes() == model_file_naive(net)
        assert_same_network(load_model(path), net)

    @pytest.mark.parametrize("size", [*range(1, 13), 31, 64])
    def test_block_edges_at_every_offset(self, tmp_path, monkeypatch, size):
        # one-character reads split every number, "]", ", " and the meta key at every offset
        net = edge_net((3, 4, 2))
        save_model(net, tmp_path / "m.json")
        with reads_of(size, monkeypatch):
            assert_same_network(load_model(tmp_path / "m.json"), net)

    @pytest.mark.parametrize("edit", [
        lambda doc: json.dumps(doc, indent=1),
        lambda doc: json.dumps(dict(reversed(doc.items()))),
        lambda doc: json.dumps(doc, separators=(",", ":")),
    ])
    def test_other_layouts_refused_with_file_and_line(self, tmp_path, edit):
        path = tmp_path / "m.json"
        save_model(toy_net((2, 3, 1)), path)
        path.write_text(edit(json.loads(path.read_text())))
        with pytest.raises(FormatError, match=r"m.json: line 1: not the JSON layout expected"):
            load_model(path)

    ZERO_META = '"meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0}}'

    @pytest.mark.parametrize("weights, message", [
        ("[[0.5, 0.5], [0.5]]", r"m.json: weights\[0\]: expected 6 values, got 2"),
        ("[[0.5" + ", 0.5" * 4999 + "], [0.5, 0.5, 0.5]]", r"m.json: weights\[0\]: expected 6 values, got 5000"),
        ('[["a"' + ", 0.5" * 9 + "], [0.5, 0.5, 0.5]]", r"m.json: weights\[0\]: expected 6 values, got 10"),
        ("[[" + "0.5, " * 5 + "0.5], [0.5, [0.5, 1.0], 0.5]]",
         r"m.json: weights\[1\]: expected JSON floats, got \[0.5, 1.0\]"),
        ('[[' + "0.5, " * 5 + '"a], b"], [0.5, 0.5, 0.5]]', r"m.json: weights\[0\]: expected JSON floats, got 'a\], b'"),
        ('[[' + "0.5, " * 5 + 'null], [0.5, 0.5, 0.5]]', r"m.json: weights\[0\]: expected JSON floats, got None"),
        ('[[' + "0.5, " * 6 + '], [0.5, 0.5, 0.5]]', r"m.json: line 1: not valid JSON"),
        ('[[' + "0.5, " * 5 + '0.5]]', r"m.json: line 1: not the JSON layout expected: ', \[' expected, '\], ' found"),
        ('[[\n' + "0.5, " * 5 + '0.5], [0.5, NaN, 0.5]]', r"m.json: line 2: non-finite number NaN"),
        ('[[' + "0.5, " * 5 + '0.5], [0.5, 0.5, 0.5], []]', r"m.json: line 1: not the JSON layout expected: '\], \"meta\": '"),
    ])
    @pytest.mark.parametrize("size", [1, 4, None])
    def test_defects_named_at_any_block_size(self, tmp_path, monkeypatch, weights, message, size):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [2, 3, 1], "weights": %s, %s' % (weights, self.ZERO_META))
        with reads_of(size or 5 * JSON_FLOATS_PER_CALL, monkeypatch), pytest.raises(FormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("tail, message", [
        (', "Meta": {}}', r"m.json: line 2: not the JSON layout expected"),
        (', "meta": {}}\n\n', r"m.json: line 2: not the JSON layout expected: text after the document"),
        (', "meta": {}, "more": 1}', r"m.json: line 2: not the JSON layout expected"),
        (', "meta": {"seed": NaN}}', r"m.json: line 2: non-finite number NaN"),
    ])
    def test_tail_defects_name_their_line(self, tmp_path, tail, message):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [1, 1], "weights": [[\n0.5]]' + tail)
        with pytest.raises(FormatError, match=message):
            load_model(path)

    def test_arch_larger_than_the_file_refused_before_allocating(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [1, 1000000000], "weights": [[0.5]], %s' % self.ZERO_META)
        with pytest.raises(FormatError, match=r"m.json: weights\[0\]: 1000000000 values take at least 4999999998"):
            load_model(path)

    def test_non_utf8_model_refused(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(init_network((2, 2), seed=0), path)
        path.write_bytes(path.read_bytes().replace(b'"dataset_id": "', b'"dataset_id": "\xff'))
        with pytest.raises(FormatError, match="m.json: not UTF-8"):
            load_model(path)

    def test_nan_in_unknown_meta_raises_and_leaves_no_file(self, tmp_path):
        net = init_network((3, 2), seed=0)
        bad = LayeredNetwork(arch=net.arch, weights=net.weights,
                             meta=dict(net.meta, notes={"curve": [0.5, float("nan")]}))
        with pytest.raises(ValueError):
            save_model(bad, tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []

    def test_document_key_set(self, tmp_path):
        net = init_network((2, 3), seed=1)
        path = tmp_path / "m.json"
        save_model(net, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"format", "arch", "weights", "meta"}
        assert doc["format"] == "nnx-json/1"
        assert len(doc["weights"][0]) == 6  # row-major flat list per matrix

    def test_failed_save_keeps_previous_file(self, tmp_path):
        net = init_network((3, 2, 2), seed=0)
        path = tmp_path / "m.json"
        save_model(net, path)
        before = path.read_bytes()
        bad = LayeredNetwork(arch=net.arch, weights=net.weights, meta=dict(net.meta, test_acc=float("nan")))
        with pytest.raises(ValueError):
            save_model(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_unknown_meta_keys_preserved(self, tmp_path):
        net = init_network((2, 2), seed=0)
        meta = dict(net.meta)
        meta["notes"] = {"lr_schedule": "flat"}
        net = LayeredNetwork(arch=net.arch, weights=net.weights, meta=meta)
        path = tmp_path / "m.json"
        save_model(net, path)
        assert load_model(path).meta["notes"] == {"lr_schedule": "flat"}

    def test_truncated_file(self, tmp_path):
        net = init_network((2, 2), seed=0)
        path = tmp_path / "m.json"
        save_model(net, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match="JSON"):
            load_model(path)

    def test_wrong_value_count(self, tmp_path):
        doc = {
            "format": "nnx-json/1",
            "arch": [3, 2],
            "weights": [[0.0] * 7],
            "meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"weights\[0\]: expected 6 values, got 7"):
            load_model(path)

    def test_string_weight_names_file_and_matrix(self, tmp_path):
        doc = {
            "format": "nnx-json/1",
            "arch": [2, 2, 1],
            "weights": [[0.5, 0.5, 0.5, 0.5], ["a", 1.0]],
            "meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"m.json: weights\[1\]: .*'a'"):
            load_model(path)

    @pytest.mark.parametrize("odd", ['"0.5"', "true", "[0.5]", "1"])
    def test_weight_that_is_no_json_float_rejected(self, tmp_path, odd):
        # numpy would read each of these as a weight; save_model writes floats only
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [2, 2, 1], "weights": [[0.5, 0.5, 0.5, 0.5], '
                        '[%s, 1.0]], "meta": {"seed": 0, "dataset_id": "", "epochs": 0, '
                        '"train_acc": 0.0, "test_acc": 0.0}}' % odd)
        with pytest.raises(FormatError, match=r"m.json: weights\[1\]: expected JSON floats"):
            load_model(path)

    def test_boolean_layer_size_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [true, 2], "weights": [[0.5, 0.5]], '
                        '"meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0}}')
        with pytest.raises(FormatError, match="m.json: arch: must be a list of >= 2 positive integers"):
            load_model(path)

    def test_bad_format_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/2", "arch": [1, 1], "weights": [[0.0]], "meta": {}}')
        with pytest.raises(FormatError, match="format"):
            load_model(path)

    def test_missing_meta_field(self, tmp_path):
        doc = {
            "format": "nnx-json/1",
            "arch": [1, 1],
            "weights": [[0.5]],
            "meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="meta.test_acc"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("train_acc", -0.1), ("test_acc", 1.5), ("test_acc", 2)])
    def test_accuracy_outside_unit_interval_rejected(self, tmp_path, key, value):
        meta = {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 1.0}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "nnx-json/1", "arch": [1, 1], "weights": [[0.5]],
                                    "meta": dict(meta, **{key: value})}))
        with pytest.raises(FormatError, match=rf"m.json: meta.{key}: {value} is outside \[0, 1\]"):
            load_model(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [1, 1], "weights": [[Infinity]], '
                        '"meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0}}')
        with pytest.raises(FormatError, match="non-finite"):
            load_model(path)
