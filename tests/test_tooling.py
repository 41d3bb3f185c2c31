"""Checks on the source tree itself.

``perfbench/run.py --trace 1`` wraps neurotopo functions by the names its
callers look them up by (``perfbench/instrument.py``).  Renaming or deleting
one of them must fail here, not only in a traced benchmark run.  A library
module must not import a name it never uses, so deleted code leaves no
stale import behind.  The measure table holds the public measure functions,
so no private row kernel can drift from the function the oracles check.
No module calls ``json.dump``, which always runs the pure-Python encoder.
"""

import ast
import importlib
from pathlib import Path

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


def test_no_json_dump():
    # json.dump writes token by token from Python; artifacts.write_json feeds
    # json.dumps (the C encoder) bounded pieces instead
    found = []
    for path in sorted((ROOT / "src" / "neurotopo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "dump" and getattr(node.value, "id", None) == "json":
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json" and "dump" in {a.name for a in node.names}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
