"""Where the traced run hooks into neurotopo, and the per-layer metrics it yields.

Each public function is wrapped under the name its caller looks it up by:
the CLI reaches the library through module attributes (``trainer.train``
is looked up in ``neurotopo.trainer``), while ``load_model``,
``save_model``, ``build_graph``, ``threshold_view`` and
``largest_component`` are imported into the calling module, so they are
patched there.  Span names are ``<layer>.<function>``; layers are the
module names.
"""

import inspect
import os
from collections import Counter, defaultdict

import numpy as np

from tracing import descendants, self_times

# layers whose self times add up to the wall time of a timed iteration;
# datagen runs in set-up only
TIMED_LAYERS = ("trainer", "model", "centrality", "descriptors", "bon", "cli", "plots")

MEASURE_IDS = ("s", "snn", "so", "sg", "mc", "bc", "hc", "cfc")

# metric -> the span whose inclusive durations it sums
DURATIONS = {
    "trainer.load_idx_s": "trainer.load_idx",
    "trainer.train_s": "trainer.train",
    "trainer.evaluate_s": "trainer.evaluate",
    "model.save_s": "model.save_model",
    "model.load_s": "model.load_model",
    "model.build_graph_s": "model.build_graph",
    "model.threshold_view_s": "model.threshold_view",
    "model.largest_component_s": "model.largest_component",
    **{f"centrality.{m}_s": f"centrality.{m}" for m in MEASURE_IDS},
    "centrality.csv_write_s": "centrality.write_measures_csv",
    "centrality.csv_read_s": "centrality.read_measures_csv",
    "descriptors.feature_matrix_s": "descriptors.build_feature_matrix",
    "descriptors.pearson_s": "descriptors.pearson_matrix",
    "bon.elbow_s": "bon.elbow_scan",
    "bon.occurrence_s": "bon.occurrence",
    "bon.jsd_s": "bon.jsd",
    "cli.train_s": "cli.cmd_train",
    "cli.measure_s": "cli.cmd_measure",
    "cli.vocab_build_s": "cli.cmd_vocab_build",
    "cli.vocab_assign_s": "cli.cmd_vocab_assign",
    "cli.plot_s": "cli.cmd_plot",
    "cli.compare_s": "cli.cmd_compare",
}

# metric -> the span whose self times it sums
SELF_DURATIONS = {"bon.kmeans_s": "bon.kmeans"}

# counters recorded by the wrappers; "computed" ones are derived from
# arguments and file sizes, not timed
COUNTS = (
    "trainer.networks",
    "trainer.failed",
    "trainer.sample_epochs",
    "trainer.gflop_computed",
    "model.bytes_written",
    "model.bytes_read",
    "centrality.nan_cells",
    "centrality.networks",
    "descriptors.rows",
    "descriptors.excluded_rows",
    "bon.kmeans_calls",
    "bon.restarts_run",
    "bon.k_star",
)

# metrics of the set-up phase, per set-up repetition
SETUP_METRICS = ("datagen.busy_s", "datagen.images")

TRACE_METRICS = ("trace.wall_s", "trace.unattributed_s", "trace.overhead_s")

# user+sys CPU of the process and its children per untraced iteration (median);
# per-layer rather than end-to-end because it does not repeat within a tenth
PROCESS_METRICS = ("process.cpu_s",)

LAYER_SELF = tuple(f"{layer}.self_s" for layer in TIMED_LAYERS if layer != "plots")
# plots has no wrapped callee, so its self time is its whole time
PLOTS_SELF = "plots.svg_s"


def per_layer_names():
    """Every per-layer metric, in reporting order."""
    names = list(SETUP_METRICS) + list(DURATIONS) + list(SELF_DURATIONS) + list(COUNTS)
    names += list(LAYER_SELF) + [PLOTS_SELF] + list(TRACE_METRICS) + list(PROCESS_METRICS)
    names += ["checks.fail_frac"]
    return names


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer, nt):
    """Wrap neurotopo's public functions; ``nt`` holds the imported modules."""
    cli, trainer, centrality = nt["cli"], nt["trainer"], nt["centrality"]
    descriptors, bon, plots, datagen, model = (
        nt["descriptors"], nt["bon"], nt["plots"], nt["datagen"], nt["model"]
    )

    def images(t, args, kwargs, result):
        t.count("datagen.images", _bound(datagen.synthetic_digits, args, kwargs)["count"])

    def population(t, args, kwargs, manifest):
        t.count("trainer.networks", sum(e["status"] == "trained" for e in manifest))
        t.count("trainer.failed", sum(e["status"].startswith("failed") for e in manifest))

    def trained(t, args, kwargs, result):
        a = _bound(trainer.train, args, kwargs)
        config = a["config"]
        sample_epochs = len(a["train_set"]) * config.epochs
        macs = sum(x * y for x, y in zip(config.arch[:-1], config.arch[1:]))
        t.count("trainer.sample_epochs", sample_epochs)
        # forward 2 and backward 4 flops per weight per sample
        t.count("trainer.gflop_computed", 6 * macs * sample_epochs / 1e9)

    def saved(t, args, kwargs, result):
        t.count("model.bytes_written", os.path.getsize(_bound(model.save_model, args, kwargs)["path"]))

    def loaded(t, args, kwargs, result):
        t.count("model.bytes_read", os.path.getsize(_bound(model.load_model, args, kwargs)["path"]))

    def measured(t, args, kwargs, table):
        t.count("centrality.networks")
        t.count("centrality.nan_cells", int(np.isnan(table.values).sum()))

    def featured(t, args, kwargs, fm):
        t.count("descriptors.rows", fm.row_count)
        t.count("descriptors.excluded_rows", fm.excluded_rows)

    def clustered(t, args, kwargs, result):
        t.count("bon.kmeans_calls")
        t.count("bon.restarts_run", _bound(bon.kmeans, args, kwargs)["restarts"])

    def elbow(t, args, kwargs, result):
        t.count("bon.k_star", result.k_star)

    def measure_name(args, kwargs):
        return f"centrality.{_bound(centrality.compute_measure, args, kwargs)['measure_id']}"

    w = tracer.wrap
    w(datagen, "write_synthetic_benchmark", "datagen.write_synthetic_benchmark")
    w(datagen, "synthetic_digits", "datagen.synthetic_digits", images)
    w(datagen, "write_idx", "datagen.write_idx")
    for name in ("cmd_train", "cmd_measure", "cmd_vocab_build", "cmd_vocab_assign",
                 "cmd_plot", "cmd_compare"):
        w(cli, name, f"cli.{name}")
    w(cli, "load_model", "model.load_model", loaded)
    w(trainer, "load_model", "model.load_model", loaded)
    w(trainer, "save_model", "model.save_model", saved)
    w(trainer, "load_idx", "trainer.load_idx")
    w(trainer, "generate_population", "trainer.generate_population", population)
    w(trainer, "init_network", "trainer.init_network")
    w(trainer, "train", "trainer.train", trained)
    w(trainer, "evaluate", "trainer.evaluate")
    w(centrality, "build_graph", "model.build_graph")
    w(centrality, "threshold_view", "model.threshold_view")
    w(centrality, "largest_component", "model.largest_component")
    w(centrality, "measure_all", "centrality.measure_all", measured)
    w(centrality, "compute_measure", measure_name)
    w(centrality, "write_measures_csv", "centrality.write_measures_csv")
    w(centrality, "read_measures_csv", "centrality.read_measures_csv")
    w(descriptors, "build_feature_matrix", "descriptors.build_feature_matrix", featured)
    w(descriptors, "scatter_points", "descriptors.scatter_points")
    w(descriptors, "layer_mean", "descriptors.layer_mean")
    w(descriptors, "pearson_matrix", "descriptors.pearson_matrix")
    w(bon, "elbow_scan", "bon.elbow_scan", elbow)
    w(bon, "chord_knee", "bon.chord_knee")
    w(bon, "kmeans", "bon.kmeans", clustered)
    for name in ("save_vocabulary", "load_vocabulary", "occurrence", "assign_rows",
                 "write_occurrence_csv", "read_occurrence_csv", "accuracy_groups",
                 "cross_benchmark_jsd", "jsd"):
        w(bon, name, f"bon.{name}")
    for name in ("svg_scatter", "svg_group_bars", "svg_heatmap"):
        w(plots, name, f"plots.{name}")


def _counts_by_root(tracer):
    out = defaultdict(Counter)
    for root, name, amount in tracer.counts:
        out[root][name] += amount
    return out


def root_metrics(tracer, root_ids):
    """Per-layer metrics of each root span (one timed iteration each).

    Returns one dict per root.  The layer self times and
    ``trace.unattributed_s`` (the root's own self time) add up to
    ``trace.wall_s``, the root's duration.
    """
    selfs = self_times(tracer.spans)
    counts = _counts_by_root(tracer)
    inclusive = {span: metric for metric, span in DURATIONS.items()}
    own = {span: metric for metric, span in SELF_DURATIONS.items()}
    out = []
    for root_id in root_ids:
        m = dict.fromkeys([*DURATIONS, *SELF_DURATIONS, *LAYER_SELF, PLOTS_SELF], 0.0)
        for s in descendants(tracer.spans, root_id):
            layer = s.name.split(".", 1)[0]
            key = PLOTS_SELF if layer == "plots" else f"{layer}.self_s"
            m[key] = m.get(key, 0.0) + selfs[s.id]
            if s.name in inclusive:
                m[inclusive[s.name]] += s.duration
            if s.name in own:
                m[own[s.name]] += selfs[s.id]
        m.update((name, counts[root_id][name]) for name in COUNTS)
        m["trace.wall_s"] = tracer.spans[root_id].duration
        m["trace.unattributed_s"] = selfs[root_id]
        out.append(m)
    return out


def setup_metrics(tracer, root_ids):
    """datagen busy time and images, per set-up repetition."""
    selfs = self_times(tracer.spans)
    counts = _counts_by_root(tracer)
    return [
        {
            "datagen.busy_s": sum(selfs[s.id] for s in descendants(tracer.spans, root_id)
                                  if s.name.startswith("datagen.")),
            "datagen.images": counts[root_id]["datagen.images"],
        }
        for root_id in root_ids
    ]


def accounting_error(m):
    """|layer self times + unattributed - wall| for one iteration's metrics."""
    parts = sum(m[name] for name in LAYER_SELF) + m[PLOTS_SELF] + m["trace.unattributed_s"]
    return abs(parts - m["trace.wall_s"])
