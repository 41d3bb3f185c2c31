"""The three workloads: their set-up, one timed CLI iteration, and output checks.

Every workload drives ``neurotopo.cli.main`` with the CLI's defaults for
parallelism (``--workers`` unset) and with BLAS threads as found.  Set-up
writes the surrogate corpus (and, for ``measure_paper``, trains the models
to measure); the timed iteration is a sequence of CLI commands over those
inputs.  Sizes are chosen so one iteration takes a few seconds on a 2-core
machine, letting a run take the median of several.
"""

import csv
import functools
import json
import math
import os

import numpy as np

import reference

DESK_ARCH = (784, 32, 16, 10)
PAPER_ARCH = (784, 200, 100, 10)
MEASURES_ALL = ("s", "snn", "so", "sg", "mc", "bc", "hc", "cfc")
NAN_ALLOWED = {"so", "cfc"}  # connectivity-requiring measures flag dropped neurons
CORPUS = (2000, 500)  # surrogate train / test images
TRAIN_FLAGS = ("--lr", "0.01", "--batch", "100", "--init-range", "0.9")


def arch_text(arch):
    return ",".join(str(x) for x in arch)


def hidden_count(arch):
    return sum(arch[1:-1])


class Ledger:
    """Operations attempted and failed, by kind: commands, networks, checks."""

    def __init__(self):
        self.attempted = {"commands": 0, "networks": 0, "checks": 0}
        self.failed = {"commands": 0, "networks": 0, "checks": 0}
        self.failures = []

    def add(self, kind, what, count=1, bad=0):
        """Record ``count`` operations of ``kind``, ``bad`` of them failed."""
        self.attempted[kind] += count
        self.failed[kind] += bad
        if bad:
            self.failures.append(f"{kind}: {what}")

    def check(self, ok, what):
        self.add("checks", what, bad=0 if ok else 1)

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())


def read_csv(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_manifest(ledger, models_dir, count):
    with open(os.path.join(models_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = sum(e["status"] != "trained" for e in manifest) + max(count - len(manifest), 0)
    ledger.add("networks", f"{models_dir}: {bad} of {count} networks not trained", count, bad)
    return manifest


def check_measures_csv(ledger, path, measures, networks, rows_per_network):
    """Header, row counts per network, and NaN only in so/cfc columns."""
    header, rows = read_csv(path)
    ledger.check(header == ["network_id", "layer", "neuron", *measures], f"{path}: header {header}")
    per_net = {}
    for r in rows:
        per_net[r[0]] = per_net.get(r[0], 0) + 1
    ok_nets = sum(n == rows_per_network for n in per_net.values())
    ledger.add("networks", f"{path}: {ok_nets} of {networks} networks with {rows_per_network} rows",
               networks, networks - min(ok_nets, networks))
    ledger.check(len(rows) == networks * rows_per_network and all(len(r) == len(header) for r in rows),
                 f"{path}: {len(rows)} rows")
    misplaced = [
        (r[0], r[1], r[2], m)
        for r in rows
        for m, x in zip(measures, r[3:])
        if x == "NaN" and m not in NAN_ALLOWED
    ]
    ledger.check(not misplaced, f"{path}: NaN outside so/cfc at {misplaced[:3]}")
    return header, rows


def cross_check_measures(ledger, model_path, csv_header, csv_rows, measures):
    """Compare one network's CSV rows against the independent references."""
    arch, _, meta = reference.read_model(model_path)
    nid = f"seed{meta['seed']}"
    mine = [r for r in csv_rows if r[0] == nid]
    first_hidden = arch[0]
    values = {}
    for r in mine:
        layer, neuron = int(r[1]), int(r[2])
        node = sum(arch[:layer]) + neuron
        values[node] = dict(zip(csv_header[3:], (float(x) for x in r[3:])))
    ledger.check(len(values) == hidden_count(arch) and min(values) == first_hidden,
                 f"{model_path}: hidden rows of {nid}")
    ref = reference.hidden_measures(model_path, measures)
    for m in measures:
        bad = [(v, values[v][m], want) for v, (want, scale) in ref[m].items()
               if not reference.compare(m, values[v][m], want, scale)]
        ledger.check(not bad, f"{nid}: {m} differs from reference at {bad[:3]}")


class DeskStudy:
    """The README walkthrough at 784,32,16,10, from train to compare.

    The elbow k-means scan does most of the work, training and the s,bc,sg
    measurement the rest; it shows k-means gains, and kernel and training
    gains at a small share.
    """

    name = "desk_study"
    networks = 6
    epochs = 3
    restarts = 50
    group_size = 2
    k = 6

    def setup(self, d, seeds, nt, cli_run):
        nt["datagen"].write_synthetic_benchmark(os.path.join(d, "data"), *CORPUS, seed=seeds["corpus"])
        return {"data": os.path.join(d, "data")}

    def iteration(self, it, inputs, seeds, cli_run):
        j = functools.partial(os.path.join, it)
        models, desc = j("models"), j("desc.csv")
        cli_run(["train", "--data", inputs["data"], "--count", str(self.networks),
                 "--weight-seed-base", str(seeds["weight_base"]), "--data-seed", str(seeds["data"]),
                 "--arch", arch_text(DESK_ARCH), "--epochs", str(self.epochs), *TRAIN_FLAGS,
                 "--out", models])
        cli_run(["measure", "--models", models, "--measures", "s,bc,sg", "--out", desc])
        cli_run(["vocab", "build", "--measures-csv", desc, "--elbow", "2", "18",
                 "--curve-out", j("elbow.csv"), "--restarts", str(self.restarts),
                 "--seed", str(seeds["vocab"]), "--benchmark-id", "perfbench", "--out", j("vocab.json")])
        cli_run(["vocab", "build", "--measures-csv", desc, "--k", str(self.k),
                 "--restarts", str(self.restarts), "--seed", str(seeds["vocab"]), "--out", j("vocab6.json")])
        cli_run(["vocab", "assign", "--vocab", j("vocab6.json"), "--measures-csv", desc,
                 "--manifest", j("models/manifest.json"), "--out", j("occurrence.csv")])
        cli_run(["plot", "--what", "scatter", "--measures-csv", desc, "--measure", "s",
                 "--manifest", j("models/manifest.json"), "--out-csv", j("scatter.csv"),
                 "--out-svg", j("scatter.svg")])
        cli_run(["plot", "--what", "hist", "--occurrence-csv", j("occurrence.csv"),
                 "--group-size", str(self.group_size), "--out-csv", j("hist.csv"), "--out-svg", j("hist.svg")])
        cli_run(["compare", "--vocab-a", j("vocab6.json"), "--vocab-b", j("vocab6.json"),
                 "--population", desc, "--out", j("self_jsd.json")])
        return self.networks

    def check(self, it, inputs, seeds, ledger):
        j = functools.partial(os.path.join, it)
        manifest = check_manifest(ledger, j("models"), self.networks)
        header, rows = check_measures_csv(ledger, j("desc.csv"), ("s", "bc", "sg"),
                                          self.networks, hidden_count(DESK_ARCH))
        _, curve = read_csv(j("elbow.csv"))
        ledger.check(len(curve) == 17, f"elbow curve has {len(curve)} points")
        _, occ = read_csv(j("occurrence.csv"))
        sums = [math.fsum(float(x) for x in r[2:]) for r in occ]
        ledger.check(len(occ) == self.networks and all(len(r) == 2 + self.k for r in occ),
                     f"occurrence CSV shape {len(occ)}")
        ledger.check(all(abs(s - 1.0) <= 1e-9 for s in sums), f"occurrence row sums {sums}")
        _, hist = read_csv(j("hist.csv"))
        ledger.check(len(hist) == 3 * self.k, f"hist CSV has {len(hist)} rows")
        _, scatter = read_csv(j("scatter.csv"))
        ledger.check(len(scatter) == self.networks, f"scatter CSV has {len(scatter)} rows")
        with open(j("self_jsd.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        ledger.check(doc["count"] == self.networks and doc["jsd_mean"] == 0.0
                     and all(v == 0.0 for v in doc["per_network"].values()),
                     f"self-vocabulary JSD {doc['jsd_mean']}")
        cross_check_measures(ledger, os.path.join(j("models"), manifest[0]["model_path"]),
                             header, rows, ("s", "bc", "sg"))


class MeasurePaper:
    """All eight measures plus the correlation plot on 784,200,100,10 models.

    Centrality and model loading do all the timed work; the trainer (models
    are trained in set-up) and bon are bypassed.
    """

    name = "measure_paper"
    networks = 2

    def setup(self, d, seeds, nt, cli_run):
        data = os.path.join(d, "data")
        nt["datagen"].write_synthetic_benchmark(data, *CORPUS, seed=seeds["corpus"])
        cli_run(["train", "--data", data, "--count", str(self.networks),
                 "--weight-seed-base", str(seeds["weight_base"]), "--data-seed", str(seeds["data"]),
                 "--arch", arch_text(PAPER_ARCH), "--epochs", "1", *TRAIN_FLAGS,
                 "--out", os.path.join(d, "models")])
        return {"data": data, "models": os.path.join(d, "models")}

    def iteration(self, it, inputs, seeds, cli_run):
        out = os.path.join(it, "measures.csv")
        cli_run(["measure", "--models", inputs["models"], "--measures", "all", "--out", out])
        cli_run(["plot", "--what", "corr", "--measures-csv", out,
                 "--out-csv", os.path.join(it, "corr.csv"), "--out-svg", os.path.join(it, "corr.svg")])
        return self.networks

    def check(self, it, inputs, seeds, ledger):
        header, rows = check_measures_csv(ledger, os.path.join(it, "measures.csv"), MEASURES_ALL,
                                          self.networks, hidden_count(PAPER_ARCH))
        corr_header, corr = read_csv(os.path.join(it, "corr.csv"))
        ledger.check(corr_header == ["measure", *MEASURES_ALL] and len(corr) == 8
                     and all(r[1 + i] in ("1.0", "NaN") for i, r in enumerate(corr)),
                     "correlation CSV shape and unit diagonal")
        manifest = check_manifest(ledger, inputs["models"], self.networks)
        cross_check_measures(ledger, os.path.join(inputs["models"], manifest[0]["model_path"]),
                             header, rows, MEASURES_ALL)


class TrainPaper:
    """Population training at 784,200,100,10 on the surrogate corpus.

    The trainer and model writing do all the timed work; centrality,
    descriptors and bon are bypassed.  ``--workers`` stays unset: the pool
    path is left out until its BLAS oversubscription is fixed.
    """

    name = "train_paper"
    networks = 3
    epochs = 6

    def setup(self, d, seeds, nt, cli_run):
        nt["datagen"].write_synthetic_benchmark(os.path.join(d, "data"), *CORPUS, seed=seeds["corpus"])
        return {"data": os.path.join(d, "data")}

    def iteration(self, it, inputs, seeds, cli_run):
        cli_run(["train", "--data", inputs["data"], "--count", str(self.networks),
                 "--weight-seed-base", str(seeds["weight_base"]), "--data-seed", str(seeds["data"]),
                 "--arch", arch_text(PAPER_ARCH), "--epochs", str(self.epochs), *TRAIN_FLAGS,
                 "--out", os.path.join(it, "models")])
        return self.networks

    def check(self, it, inputs, seeds, ledger):
        models = os.path.join(it, "models")
        manifest = check_manifest(ledger, models, self.networks)
        for entry in manifest:
            arch, _, meta = reference.read_model(os.path.join(models, entry["model_path"]))
            ledger.check(tuple(arch) == PAPER_ARCH and meta["seed"] == entry["seed"]
                         and meta["epochs"] == self.epochs and 0.0 <= meta["test_acc"] <= 1.0,
                         f"{entry['model_path']}: arch {arch}, meta {meta}")
        entry = manifest[0]
        _, weights, meta = reference.read_model(os.path.join(models, entry["model_path"]))
        data = inputs["data"]
        images, labels = reference.read_idx(os.path.join(data, "train-images-idx3-ubyte"),
                                            os.path.join(data, "train-labels-idx1-ubyte"))
        want = reference.train_reference(PAPER_ARCH, entry["seed"], seeds["data"], images, labels,
                                         self.epochs, 0.01, 100, 0.9)
        worst = max(float(np.max(np.abs(a - b))) for a, b in zip(weights, want))
        ledger.check(worst <= 1e-9, f"seed {entry['seed']}: weights differ from reference by {worst}")
        test_images, test_labels = reference.read_idx(os.path.join(data, "t10k-images-idx3-ubyte"),
                                                      os.path.join(data, "t10k-labels-idx1-ubyte"))
        acc = reference.accuracy(want, test_images, test_labels)
        ledger.check(acc == meta["test_acc"], f"test accuracy {meta['test_acc']} vs reference {acc}")


WORKLOADS = {w.name: w for w in (DeskStudy(), MeasurePaper(), TrainPaper())}
