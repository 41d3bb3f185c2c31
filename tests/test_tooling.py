"""The benchmark's traced mode against the real library.

``perfbench/run.py --trace 1`` wraps neurotopo functions by the names its
callers look them up by (``perfbench/instrument.py``).  Renaming or deleting
one of them must fail here, not only in a traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
