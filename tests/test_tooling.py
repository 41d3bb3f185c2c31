"""Checks on the source tree itself.

``perfbench/run.py --trace 1`` wraps neurotopo functions by the names its
callers look them up by (``perfbench/instrument.py``).  Renaming or deleting
one of them must fail here, not only in a traced benchmark run.  A library
module must not import a name it never uses, so deleted code leaves no
stale import behind, and every module-level private name must be read
somewhere in the package, so it leaves no orphaned helper either.  The
measure table holds the public measure functions, so no private row kernel
can drift from the function the oracles check, and each of them takes
``(view, nodes=None)`` and nothing else.
Loading a paper-size model decodes at most ``JSON_FLOATS_PER_CALL`` weights
per JSON call and peaks below 2.5 times its weight bytes, and k-means matches
its one-restart-at-a-time oracle bit for bit at every descriptor width.
No module calls ``json.dump``, which always runs the pure-Python encoder, and
no module but ``artifacts`` opens a file for writing, so every artifact is
replaced atomically.
numpy is the only runtime dependency: no module imports scipy, directly or
through another import.
The quick demos run against this checkout's ``src/``, and ``measure_all``
meets its dense oracles at one OpenBLAS thread as well as at the default.
On a seeded paper net, the entries and columns that hc's pruning bounds
leave to the plain column loop are pinned as exact counts.
README names only code that exists: every backticked ``<module>.<name>`` of
a neurotopo module resolves, and every backticked private name is defined at
module level somewhere in the package.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest

from neurotopo import bon, centrality
from neurotopo.artifacts import JSON_FLOATS_PER_CALL
from neurotopo.descriptors import feature_matrix_from_values
from neurotopo.model import load_model, save_model
from neurotopo.trainer import init_network

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MODULES = ("cli", "trainer", "model", "centrality", "descriptors", "bon", "plots", "datagen")


def test_perfbench_instrumentation_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    tracing = importlib.import_module("tracing")
    nt = {name: importlib.import_module(f"neurotopo.{name}") for name in MODULES}
    before = {name: dict(vars(module)) for name, module in nt.items()}
    tracer = tracing.Tracer("test")
    try:
        instrument.install(tracer, nt)
        wrapped = {
            (name, attr)
            for name, module in nt.items()
            for attr, value in vars(module).items()
            if value is not before[name].get(attr)
        }
    finally:
        tracer.unwrap_all()
    assert {("centrality", "largest_component"), ("centrality", "compute_measure"),
            ("centrality", "measure_all"), ("bon", "kmeans"), ("cli", "cmd_measure")} <= wrapped
    for name, module in nt.items():
        assert all(getattr(module, attr) is value for attr, value in before[name].items()), name


def test_measure_table_holds_the_exported_functions():
    neurotopo = importlib.import_module("neurotopo")
    centrality = importlib.import_module("neurotopo.centrality")
    for measure_id, info in centrality.MEASURES.items():
        assert info.func is getattr(neurotopo, info.func.__name__, None), measure_id
        params = [(p.name, p.default) for p in inspect.signature(info.func).parameters.values()]
        assert params == [("view", inspect.Parameter.empty), ("nodes", None)], measure_id
    assert len({info.func for info in centrality.MEASURES.values()}) == len(centrality.MEASURES)


def test_no_unused_imports():
    # __init__.py imports to re-export; elsewhere every imported name is read
    unused = []
    for path in sorted((ROOT / "src" / "neurotopo").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]
    assert unused == []


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name):
                yield target.id, node.lineno


def test_no_dead_private_helpers():
    # a private name that no module of the package reads is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src" / "neurotopo").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{name}:{line}: {helper}" for name, tree in trees.items()
            for helper, line in _module_level_names(tree)
            if helper.startswith("_") and not helper.startswith("__") and helper not in read]
    assert dead == []


def test_readme_names_only_existing_code():
    text = (ROOT / "README.md").read_text()
    modules = {path.stem for path in (ROOT / "src" / "neurotopo").glob("*.py")} - {"__init__", "__main__"}
    defined = {name for path in (ROOT / "src" / "neurotopo").glob("*.py")
               for name, _ in _module_level_names(ast.parse(path.read_text(), filename=str(path)))}
    missing = []
    for quoted in re.findall(r"`([^`]+)`", text):
        ref = re.match(r"(\w+)\.(\w+)", quoted)
        if ref and ref[1] in modules and not hasattr(importlib.import_module(f"neurotopo.{ref[1]}"), ref[2]):
            missing.append(quoted)
        if re.fullmatch(r"_\w+", quoted) and quoted not in defined:
            missing.append(quoted)
    assert missing == []


def _longest_list(value):
    if isinstance(value, dict):
        value = list(value.values())
    return max([len(value), *map(_longest_list, value)]) if isinstance(value, list) else 0


@pytest.fixture(scope="module")
def paper_model(tmp_path_factory):
    net = init_network((784, 200, 100, 10), 1)
    path = tmp_path_factory.mktemp("paper") / "m.json"
    save_model(net, path)
    return net, path


def test_model_weights_decoded_in_bounded_pieces(paper_model, monkeypatch):
    # json.loads and every other decode end in raw_decode
    longest, raw_decode = [], json.JSONDecoder.raw_decode

    def counting(self, s, idx=0):
        value, end = raw_decode(self, s, idx)
        longest.append(_longest_list(value))
        return value, end

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    load_model(paper_model[1])
    assert 0 < max(longest) <= JSON_FLOATS_PER_CALL


def test_model_loading_peak_memory(paper_model):
    net, path = paper_model
    load_model(path)
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sum(w.nbytes for w in net.weights)


@pytest.mark.parametrize("d", range(1, 9))
def test_kmeans_matches_the_naive_oracle(d, monkeypatch):
    # integer points: duplicate rows, rows as near one centre as another, and,
    # at k = 5, coincident centres and revived empty clusters; the stop rule
    # is also run with restart 0's first shift ratio as the tolerance, and the
    # next float above it, which the batched ratio alone cannot settle
    x = np.random.default_rng(d).integers(0, 3, size=(40, d)).astype(np.float64)
    fm = feature_matrix_from_values(x, ("s", "snn", "so", "sg", "mc", "bc", "hc", "cfc")[:d])
    k, restarts, seed = 5, 6, d

    def first_rng():
        return np.random.default_rng(np.random.SeedSequence(seed).spawn(restarts)[0])

    start = oracles.kmeanspp_naive(fm.data, k, first_rng())
    step = oracles.lloyd_naive(fm.data, k, first_rng(), 0.0, 1)[0]
    ratio = float(np.linalg.norm(step - start)) / max(float(np.linalg.norm(start)), 1e-300)
    for tol in (bon._REL_TOL, ratio, float(np.nextafter(ratio, np.inf))):
        monkeypatch.setattr(bon, "_REL_TOL", tol)
        vocab, traces = bon.kmeans(fm, k, restarts=restarts, seed=seed, return_traces=True)
        centers, inertia, naive_traces, hits = oracles.kmeans_naive(fm.data, k, restarts, tol, seed=seed)
        assert vocab.centroids.tobytes() == bon._sort_centroids(centers, fm.measures).tobytes(), tol
        assert (vocab.inertia, traces, vocab.max_iter_hits) == (inertia, naive_traces, hits), tol


def _json_uses(names):
    """Where a module of the package names one of the ``json`` functions ``names``."""
    found = []
    for path in sorted((ROOT / "src" / "neurotopo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in names and getattr(node.value, "id", None) == "json":
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json" and names & {a.name for a in node.names}:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_json_dump():
    # json.dump writes token by token from Python; the writers call json.dumps
    # (the C encoder), on bounded pieces of a model's weights (artifacts.json_floats)
    assert _json_uses({"dump"}) == []


def test_no_json_loads():
    # every JSON file is read through artifacts.JsonBlocks: one strict decoder, one defect format
    assert _json_uses({"load", "loads"}) == []


def _open_mode(call):
    """The mode of an ``open`` call (``open``, ``gzip.open``, or a conditional
    choosing between such): its literal, "?" when it is not one, or None for
    any other call."""
    if "open" not in {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(call.func)}:
        return None
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "?"


def test_only_artifacts_opens_files_for_writing():
    # the other modules write through artifacts, which replaces each file atomically
    found = []
    for path in sorted((ROOT / "src" / "neurotopo").glob("*.py")):
        if path.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            mode = _open_mode(node) if isinstance(node, ast.Call) else None
            if mode is not None and set(mode) & set("wxa+?"):  # a mode that is not a literal may write
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_scipy():
    found = []
    for path in sorted((ROOT / "src" / "neurotopo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_cli_import_leaves_scipy_unloaded():
    # catches a scipy import reached through another package
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, neurotopo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# 02 is left out: it trains 12 networks and rewrites the files under demos/output/
@pytest.mark.parametrize("demo", ["01_centrality_tour.py", "03_bag_of_neurons.py"])
def test_quick_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_measure_all_matches_the_dense_oracles_at_one_blas_thread():
    # one OpenBLAS thread sums in another order, so the kernels' values move; they must stay inside the tolerances
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    tests = ["tests/test_centrality.py::TestLayeredKernels::test_measure_all_matches_dense_oracles",
             "tests/test_centrality.py::TestSubgraphCentrality::test_small_components_of_a_paper_net",
             "tests/test_centrality.py::TestSubgraphCentrality::test_rank_deficient_biadjacency_matches_dense_eigh"]
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:]


def test_hc_pruning_counts_at_paper_size(monkeypatch):
    # the gram entries and the product columns that the bounds leave to the column loop, as exact
    # counts on a seeded paper net: a weaker bound shows here as a changed count, not as a timing
    grams, products, unsettled = [], [], []
    gram, product, settle = centrality._minplus_gram, centrality._minplus, centrality._settle
    monkeypatch.setattr(centrality, "_minplus_gram", lambda a: grams.append(a) or gram(a))
    monkeypatch.setattr(centrality, "_minplus", lambda a, b, *out: products.append((a, b)) or product(a, b, *out))
    centrality.measure_all(init_network((784, 200, 100, 10), seed=0), measures=("hc",))
    monkeypatch.setattr(centrality, "_settle", lambda part, mask, *args: unsettled.append(mask) or settle(part, mask, *args))
    (lengths,) = grams
    gram(lengths)
    counts = [(lengths.shape, np.count_nonzero(unsettled.pop()))]  # entries
    for a, b in products:  # from the even sources, then to the even side: columns
        product(a, b)
        counts.append((b.shape, sum(np.count_nonzero(mask.any(axis=1)) for mask in unsettled)))
        unsettled.clear()
    assert counts == [((210, 884), 2), ((210, 100), 85), ((210, 884), 83)]
