"""Command-line surface: train populations, measure, build vocabularies, compare.

Exit codes are a stable contract: 0 success, 1 partial failure (work
continued but something went wrong), 2 usage or configuration error, 3 data
or I/O error.  Every command writes a run record (resolved parameters, seeds,
and sha256 hashes of written artifacts) next to its main output.
"""

import argparse
import datetime
import hashlib
import os
import re
import sys
from functools import partial

import numpy as np

from . import bon, centrality, descriptors, plots, trainer
from .artifacts import write_csv, write_json, write_text
from .errors import FormatError, NumericalError, StructuralError
from .model import load_model

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_record(anchor, command, args, artifacts, facts=None, **resolved):
    """run.json beside the main output: {anchor}/run.json for directories,
    {anchor}.run.json for files.  Parameters are the parsed arguments, with
    the values a command resolved from them (arch, measures, k) in place of
    the raw ones; ``facts`` are further entries (what failed, how the fit
    converged)."""
    record = {
        "command": command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"} | resolved,
        "artifacts": {os.path.basename(p): _sha256(p) for p in artifacts},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    } | (facts or {})
    path = os.path.join(anchor, "run.json") if os.path.isdir(anchor) else f"{anchor}.run.json"
    write_json(path, record, indent=1)


def _find_idx_pair(data_dir, images_base, labels_base):
    if not os.path.isdir(data_dir):
        raise FileNotFoundError(f"data directory {data_dir!r} does not exist")
    pair = []
    for base in (images_base, labels_base):
        for candidate in (base, base + ".gz"):
            path = os.path.join(data_dir, candidate)
            if os.path.exists(path):
                pair.append(path)
                break
        else:
            raise FileNotFoundError(f"{data_dir}: missing {base}[.gz]")
    return pair


def _parse_arch(text):
    try:
        arch = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise StructuralError(f"--arch must be a comma-separated integer list, got {text!r}")
    if len(arch) < 2 or any(x < 1 for x in arch):
        raise StructuralError(f"--arch needs >= 2 positive layer sizes, got {text!r}")
    return arch


def cmd_train(args):
    arch = _parse_arch(args.arch)
    if args.count < 1:
        raise StructuralError("--count must be >= 1")
    if min(args.train_limit, args.test_limit) < 0:
        raise StructuralError("--train-limit and --test-limit must be >= 0 (0: no limit)")
    config = trainer.TrainingConfig(
        arch=arch,
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        init_half_range=args.init_range,
        seed=args.data_seed,
    )
    train_images, train_labels = _find_idx_pair(
        args.data, "train-images-idx3-ubyte", "train-labels-idx1-ubyte"
    )
    test_images, test_labels = _find_idx_pair(
        args.data, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"
    )
    train_set = trainer.load_idx(train_images, train_labels)
    test_set = trainer.load_idx(test_images, test_labels)
    if args.train_limit:
        train_set = train_set.subset(args.train_limit)
    if args.test_limit:
        test_set = test_set.subset(args.test_limit)
    seeds = list(range(args.weight_seed_base, args.weight_seed_base + args.count))
    manifest = trainer.generate_population(
        train_set,
        test_set,
        config,
        seeds,
        args.out,
        dataset_id=args.dataset_id,
        workers=args.workers,
    )
    artifacts = [os.path.join(args.out, "manifest.json")] + [
        os.path.join(args.out, e["model_path"]) for e in manifest if e["model_path"]
    ]
    _write_run_record(args.out, "train", args, artifacts, arch=list(arch))
    failed = [e for e in manifest if e["status"].startswith("failed")]
    for e in failed:
        print(f"seed {e['seed']}: {e['status']}", file=sys.stderr)
    print(f"trained {len(manifest) - len(failed)}/{len(manifest)} networks into {args.out}")
    return EXIT_PARTIAL if failed else EXIT_OK


def _model_paths(models_dir):
    """The model files ``train`` writes, model_seed<N>.json, ascending by N;
    every other file in the directory is left alone."""
    if not os.path.isdir(models_dir):
        raise FileNotFoundError(f"models directory {models_dir!r} does not exist")
    found = (re.fullmatch(r"model_seed(0|[1-9][0-9]*)\.json", n) for n in os.listdir(models_dir))
    seeds = sorted(int(m.group(1)) for m in found if m)
    if not seeds:
        raise FormatError(f"{models_dir}: no model_seed<N>.json files found")
    return [os.path.join(models_dir, f"model_seed{s}.json") for s in seeds]


def _parse_measures(text):
    if text == "all":
        return centrality.MEASURE_ORDER
    return centrality.check_measure_ids(m.strip() for m in text.split(","))


def cmd_measure(args):
    measures = _parse_measures(args.measures)
    paths = _model_paths(args.models)
    tables, failed = [], []
    for path in paths:
        net = load_model(path)
        try:
            table = centrality.measure_all(net, measures=measures)
        except NumericalError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failed.append({"model": path, "error": str(exc)})
            table = centrality.nan_table(net, measures)
        tables.append(table)
    centrality.write_measures_csv(tables, args.out, sources=paths)
    nan_counts = {m: sum(int(np.isnan(t.column(m)).sum()) for t in tables) for m in measures}
    _write_run_record(args.out, "measure", args, [args.out], {"failed": failed, "nan_counts": nan_counts},
                      measures=list(measures))
    print(f"measured {len(tables) - len(failed)}/{len(tables)} networks -> {args.out}")
    return EXIT_PARTIAL if failed else EXIT_OK


def _load_accuracies(manifest_path):
    if manifest_path is None:
        return None
    return {
        f"seed{e['seed']}": float(e["test_acc"])
        for e in trainer.load_manifest(manifest_path)
        if e["test_acc"] is not None
    }


def cmd_vocab_build(args):
    tables = centrality.read_measures_csv(args.measures_csv)
    measures = _parse_measures(args.measures) if args.measures else tables[0].measures
    fm = descriptors.build_feature_matrix(tables, measures)
    curve_out = None
    facts = {}
    if args.elbow:
        kmin, kmax = args.elbow
        result = bon.elbow_scan(
            fm, kmin, kmax, restarts=args.restarts, seed=args.seed
        )
        k = result.k_star
        note = " (low confidence)" if result.low_confidence else ""
        print(f"elbow scan chose k*={k}{note}")
        curve_out = args.curve_out or f"{args.out}.curve.csv"
        write_csv(curve_out, ["k", "inertia"], zip(result.ks, result.inertias))
        facts["elbow"] = {
            "k_star": k,
            "low_confidence": result.low_confidence,
            "max_iter_hits": {str(ki): int(h) for ki, h in zip(result.ks, result.max_iter_hits)},
        }
    else:
        k = args.k
    vocab = bon.kmeans(
        fm, k, restarts=args.restarts, seed=args.seed, benchmark_id=args.benchmark_id
    )
    bon.save_vocabulary(vocab, args.out)
    facts["max_iter_hits"] = {str(k): vocab.max_iter_hits}
    artifacts = [args.out] + ([curve_out] if curve_out else [])
    _write_run_record(args.out, "vocab build", args, artifacts, facts, measures=list(measures), k=int(k))
    print(f"vocabulary with k={k} -> {args.out}")
    return EXIT_OK


def _split_undefined(vocab, tables):
    """The tables with a defined neuron; each other network is named on
    stderr, and none left is a StructuralError."""
    tables, failed = bon.split_undefined(vocab, tables)
    if not tables:
        raise StructuralError(f"every hidden neuron is undefined in every network: {failed}")
    for nid in failed:
        print(f"{nid!r}: every hidden neuron is undefined; left out", file=sys.stderr)
    return tables, failed


def cmd_vocab_assign(args):
    vocab = bon.load_vocabulary(args.vocab)
    accs = _load_accuracies(args.manifest)
    tables = centrality.read_measures_csv(args.measures_csv, accuracies=accs)
    tables, failed = _split_undefined(vocab, tables)
    records = [bon.PopulationRecord(t.network_id, t.test_acc, bon.occurrence(vocab, t)) for t in tables]
    bon.write_occurrence_csv(vocab, records, args.out)
    _write_run_record(args.out, "vocab assign", args, [args.out], {"failed": failed})
    print(f"occurrence histograms for {len(records)} networks -> {args.out}")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_compare(args):
    vocab_a = bon.load_vocabulary(args.vocab_a)
    vocab_b = bon.load_vocabulary(args.vocab_b)
    population = args.population
    if os.path.isdir(population):
        population = os.path.join(population, "measures.csv")
    tables, failed = _split_undefined(vocab_b, centrality.read_measures_csv(population))
    result = bon.cross_benchmark_jsd(vocab_a, vocab_b, tables)
    doc = {
        "vocab_a": args.vocab_a,
        "vocab_b": args.vocab_b,
        "count": len(result.per_network),
        "jsd_mean": result.mean,
        "jsd_std": result.std,
        "per_network": result.per_network,
    }
    write_json(args.out, doc, indent=1)
    _write_run_record(args.out, "compare", args, [args.out], {"failed": failed})
    print(f"JSD mean {result.mean:.4f} (std {result.std:.4f}) over {doc['count']} networks")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_plot(args):
    if args.what == "scatter":
        if not args.measures_csv or not args.measure:
            raise StructuralError("scatter needs --measures-csv and --measure")
        accs = _load_accuracies(args.manifest)
        tables = centrality.read_measures_csv(args.measures_csv, accuracies=accs)
        points = descriptors.scatter_points(tables, args.measure)
        header, rows = ["network_id", "x", "y", "test_acc"], points
        m = args.measure
        svg = partial(
            plots.svg_scatter, points, f"layer means of {m}", f"layer-1 mean {m}", f"layer-2 mean {m}"
        )
    elif args.what == "hist":
        if not args.occurrence_csv:
            raise StructuralError("hist needs --occurrence-csv")
        records = bon.read_occurrence_csv(args.occurrence_csv)
        try:
            worst, median, top = bon.accuracy_groups([(r.network_id, r.test_acc) for r in records], args.group_size)
        except StructuralError as exc:
            raise StructuralError(f"{args.occurrence_csv}: {exc}") from None
        by_id = {r.network_id: r for r in records}
        names = ("worst", "median", "top")
        freqs = np.stack(
            [
                np.mean([by_id[nid].occurrence for nid in group], axis=0)
                for group in (worst, median, top)
            ]
        )
        header = ["group", "type", "frequency"]
        rows = ((name, j + 1, freqs[g, j]) for g, name in enumerate(names) for j in range(freqs.shape[1]))
        svg = partial(plots.svg_group_bars, names, freqs, "neuron type occurrence by accuracy group")
    elif args.what == "corr":
        if not args.measures_csv:
            raise StructuralError("corr needs --measures-csv")
        tables = centrality.read_measures_csv(args.measures_csv)
        measures = tables[0].measures
        raw = np.vstack([t.values for t in tables])
        raw = raw[~np.isnan(raw).any(axis=1)]
        corr = descriptors.pearson_matrix(raw)
        header = ["measure", *measures]
        rows = ([m, *corr[i]] for i, m in enumerate(measures))
        svg = partial(plots.svg_heatmap, corr, measures, "measure correlation")
    write_csv(args.out_csv, header, rows)
    if args.out_svg:
        write_text(args.out_svg, svg())
    artifacts = [p for p in (args.out_csv, args.out_svg) if p]
    _write_run_record(args.out_csv, f"plot {args.what}", args, artifacts)
    print(f"plot data -> {args.out_csv}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="neurotopo",
        description="Complex-network analysis of fully connected neural networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a seeded population of networks")
    p.add_argument("--data", required=True, help="directory with IDX train/t10k files")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--weight-seed-base", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--arch", default="784,200,100,10")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--init-range", type=float, default=0.9)
    p.add_argument("--dataset-id", default="")
    p.add_argument("--train-limit", type=int, default=0)
    p.add_argument("--test-limit", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("measure", help="compute centrality measures for trained models")
    p.add_argument("--models", required=True)
    p.add_argument("--measures", default="all", help="comma list or 'all'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_measure)

    vocab = sub.add_parser("vocab", help="build or apply a Bag-of-Neurons vocabulary")
    vsub = vocab.add_subparsers(dest="vocab_command", required=True)

    p = vsub.add_parser("build")
    p.add_argument("--measures-csv", required=True)
    p.add_argument("--measures", default=None, help="subset of the CSV's measure columns")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--elbow", nargs=2, type=int, metavar=("KMIN", "KMAX"))
    p.add_argument("--curve-out", default=None)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--benchmark-id", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vocab_build)

    p = vsub.add_parser("assign")
    p.add_argument("--vocab", required=True)
    p.add_argument("--measures-csv", required=True)
    p.add_argument("--manifest", default=None, help="population manifest for test accuracies")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vocab_assign)

    p = sub.add_parser("compare", help="cross-vocabulary JSD over a population")
    p.add_argument("--vocab-a", required=True, help="source vocabulary")
    p.add_argument("--vocab-b", required=True, help="native vocabulary of the population")
    p.add_argument("--population", required=True, help="measures CSV (or directory with measures.csv)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="emit plot-ready CSV and optional static SVG")
    p.add_argument("--what", choices=("scatter", "hist", "corr"), required=True)
    p.add_argument("--measures-csv", default=None)
    p.add_argument("--measure", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--occurrence-csv", default=None)
    p.add_argument("--group-size", type=int, default=10)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
