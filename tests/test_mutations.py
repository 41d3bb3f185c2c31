"""Seeded mutation harness: malformed input files replayed through ``cli.main``.

Each file type a command reads (a model, the manifest, a vocabulary, a
measures CSV, an occurrence CSV and the four IDX files, plain and ``.gz``)
is mutated by byte flips, truncations, inserted tokens, deleted spans and
duplicated spans, and every mutant is fed to a command in process.  Whatever
the bytes, the command must return an exit code of the contract without
raising, and a non-zero exit must name on stderr the file or the network it
concerns.  The commands run here fail partially (exit 1) only on a
numerical failure, which names its model file.
"""

import gzip
import io
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from neurotopo.cli import main
from neurotopo.datagen import write_synthetic_benchmark

KINDS = ("flip", "truncate", "insert", "delete", "duplicate")
TOKENS = (b"1e999", b"NaN", b"null", b"[]", b"\xff", b"12345678901234567890")
MUTANTS = 30  # per file: six of each kind, every token inserted once
IDX_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A six-network desk population and every file its commands read."""
    root = tmp_path_factory.mktemp("corpus")
    write_synthetic_benchmark(root / "data", train_count=60, test_count=20, seed=0)
    (root / "gz").mkdir()
    for name in IDX_FILES:
        (root / "gz" / f"{name}.gz").write_bytes(gzip.compress((root / "data" / name).read_bytes(), mtime=0))
    steps = [
        ["train", "--data", root / "data", "--count", 6, "--arch", "784,3,3,10", "--epochs", 1,
         "--batch", 20, "--out", root / "models"],
        ["measure", "--models", root / "models", "--measures", "s,bc,sg", "--out", root / "measures.csv"],
        ["vocab", "build", "--measures-csv", root / "measures.csv", "--k", 2, "--restarts", 2,
         "--out", root / "vocab.json"],
        ["vocab", "assign", "--vocab", root / "vocab.json", "--measures-csv", root / "measures.csv",
         "--manifest", root / "models" / "manifest.json", "--out", root / "occurrence.csv"],
    ]
    for argv in steps:
        assert _run(argv) == (0, "")
    return root


def _model(root, path):
    return [["measure", "--models", path.parent, "--out", path.parent / "out.csv"]]


def _manifest(root, path):
    return [["plot", "--what", "scatter", "--measures-csv", root / "measures.csv", "--measure", "s",
             "--manifest", path, "--out-csv", path.parent / "scatter.csv"]]


def _vocabulary(root, path):
    return [["vocab", "assign", "--vocab", path, "--measures-csv", root / "measures.csv",
             "--out", path.parent / "occ.csv"]]


def _measures(root, path):
    return [["vocab", "build", "--measures-csv", path, "--k", 2, "--restarts", 1, "--out", path.parent / "v.json"],
            ["plot", "--what", "corr", "--measures-csv", path, "--out-csv", path.parent / "corr.csv"]]


def _occurrence(root, path):
    return [["plot", "--what", "hist", "--occurrence-csv", path, "--group-size", 2,
             "--out-csv", path.parent / "hist.csv"]]


def _idx(root, path):
    return [["train", "--data", path.parent, "--count", 1, "--arch", "784,2,10", "--epochs", 1,
             "--batch", 20, "--out", path.parent / "models"]]


# target id: (file within the corpus, the files copied beside its mutant, the commands reading it)
TARGETS = {
    "model": ("models/model_seed0.json", [], _model),
    "manifest": ("models/manifest.json", [], _manifest),
    "vocabulary": ("vocab.json", [], _vocabulary),
    "measures_csv": ("measures.csv", [], _measures),
    "occurrence_csv": ("occurrence.csv", [], _occurrence),
    **{f"idx_{name}": (f"data/{name}", [f"data/{n}" for n in IDX_FILES if n != name], _idx)
       for name in IDX_FILES},
    **{f"idx_{name}.gz": (f"gz/{name}.gz", [f"gz/{n}.gz" for n in IDX_FILES if n != name], _idx)
       for name in IDX_FILES},
}


def mutants(data, rng):
    """``MUTANTS`` seeded mutations of ``data``, cycling through the kinds.

    Positions fall in the first 64 bytes, the last 256 or anywhere, with
    equal odds, so that headers and a model's trailing ``meta`` are hit as
    often as the bulk of the file."""
    for i in range(MUTANTS):
        kind, zone = KINDS[i % len(KINDS)], rng.integers(3)
        lo, hi = ((0, min(64, len(data))), (max(0, len(data) - 256), len(data)), (0, len(data)))[zone]
        pos, span = int(rng.integers(lo, hi)), int(rng.integers(1, 17))
        if kind == "flip":
            out = bytearray(data)
            out[pos] ^= 1 << int(rng.integers(8))
        elif kind == "truncate":
            out = data[:pos]
        elif kind == "insert":
            out = data[:pos] + TOKENS[i // len(KINDS) % len(TOKENS)] + data[pos:]
        elif kind == "delete":
            out = data[:pos] + data[pos + span :]
        else:
            out = data[: pos + span] + data[pos : pos + span] + data[pos + span :]
        yield f"{kind}@{pos}", bytes(out)


def nested_too_deeply(data):
    """A JSON document with a value nested 10,000 deep inside its last object."""
    at = data.rindex(b"{") + 1
    return data[:at] + b'"deep": ' + b"[" * 10_000 + b"]" * 10_000 + b", " + data[at:]


def layer_past_int64(data):
    """A measures CSV whose last row has the layer 10**20, past the int64
    range; the rows stay in ascending order."""
    head, last = data.rstrip(b"\n").rsplit(b"\n", 1)
    nid, _, rest = last.split(b",", 2)
    return head + b"\n" + b",".join([nid, b"100000000000000000000", rest]) + b"\n"


FIXED = {
    "model": [("nested", nested_too_deeply)],
    "manifest": [("nested", nested_too_deeply)],
    "vocabulary": [("nested", nested_too_deeply)],
    "measures_csv": [("layer 1e20", layer_past_int64)],
    "occurrence_csv": [("last row dropped", lambda data: data[: data.rstrip(b"\n").rindex(b"\n") + 1])],
}


@pytest.mark.parametrize("target", TARGETS)
def test_mutated_input_keeps_the_exit_code_contract(corpus, tmp_path, target):
    source, beside, commands = TARGETS[target]
    data = (corpus / source).read_bytes()
    rng = np.random.default_rng([20211, list(TARGETS).index(target)])
    cases = [*mutants(data, rng), *((label, change(data)) for label, change in FIXED.get(target, []))]
    networks = {f"seed{s}" for s in range(6)}
    broken = []
    for case, (label, mutant) in enumerate(cases):
        work = tmp_path / str(case)
        work.mkdir()
        for name in beside:
            shutil.copy(corpus / name, work)
        path = work / source.rsplit("/", 1)[-1]
        path.write_bytes(mutant)
        for argv in commands(corpus, path):
            try:
                code, err = _run(argv)
            except Exception as exc:  # the contract maps every failure to an exit code
                broken.append(f"{label} {argv[0]}: raised {exc!r}"[:300])
                continue
            named = path.name in err or any(re.search(rf"\b{n}\b", err) for n in networks)
            numerical = code != 1 or (argv[0] == "measure" and path.name in err)
            if code not in (0, 1, 2, 3) or (code and not named) or not numerical:
                broken.append(f"{label} {argv[0]}: exit {code}, stderr {err!r}"[:300])
    assert broken == []
