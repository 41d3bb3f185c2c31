"""neurotopo benchmark: runs one workload through the CLI and prints its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk_study --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout and driven in-process
through ``neurotopo.cli.main(argv)``.  From ``--seed`` the benchmark derives
the corpus seed, ``--weight-seed-base``, ``--data-seed`` and the vocabulary
``--seed``; the program sees only the generated inputs.  Set-up (corpus and
model generation) runs five times and its median is ``setup_s``.  The timed
part repeats the workload's CLI sequence until ``--seconds`` of it have
passed and reports medians per iteration.  Output checks run after the timed
part.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with every public neurotopo function wrapped in a
span, and prints the per-layer metrics (means over the traced iterations).
The last line of standard output is one JSON object; the full record (machine
context, samples, spans) goes to ``.perfbench/results/``.  Thread and BLAS
environment variables are recorded as found, never set.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import instrument
from tracing import Tracer
from workloads import WORKLOADS, Ledger

SETUP_REPS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NEUROTOPO_THREADS")
SEED_TAG = 0x6E657572  # keeps the derived seed stream apart from other uses of --seed
MODULES = ("cli", "trainer", "model", "centrality", "descriptors", "bon", "plots", "datagen")

END_TO_END_UNITS = {
    "wall_s": "s",
    "nets_per_s": "networks/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_read") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def import_program(root):
    """Import neurotopo from the checkout's src/, or exit 2 if it is absent."""
    src = root / "src"
    if not (src / "neurotopo" / "__init__.py").is_file():
        print(f"perfbench: no neurotopo sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"neurotopo.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"perfbench: neurotopo imported from {origin}, not {src}", file=sys.stderr)
        sys.exit(2)
    return modules


def machine_context():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def derive_seeds(seed):
    state = np.random.SeedSequence([SEED_TAG, seed]).generate_state(4)
    corpus, weight_base, data, vocab = (int(x) % 1_000_000 for x in state)
    return {"corpus": corpus, "weight_base": weight_base, "data": data, "vocab": vocab}


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children's is the largest single child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Runner:
    """Calls ``neurotopo.cli.main`` and records each command in the ledger."""

    def __init__(self, cli, ledger):
        self.cli = cli
        self.ledger = ledger
        self.tracer = None  # set while a traced phase runs

    def __call__(self, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with self.tracer.span("cli.main"):
                        rc = self.cli.main(argv)
        except Exception:  # a crashing command must not stop the run; it is counted
            rc = None
            out.write(traceback.format_exc())
        self.ledger.add("commands", f"{' '.join(argv[:2])} exited {rc}: {out.getvalue()[-500:]}",
                        bad=int(rc != 0))
        return rc


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def digests(directory):
    """sha256 of every output file, except run records (they hold a timestamp)."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            if name.endswith("run.json"):
                continue
            path = os.path.join(base, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[os.path.relpath(path, directory)] = h.hexdigest()
    return out


@contextlib.contextmanager
def traced(tracer, runner, nt):
    """Wrap neurotopo's functions for the duration of the block (if tracing)."""
    if tracer is None:
        yield
        return
    instrument.install(tracer, nt)
    runner.tracer = tracer
    try:
        yield
    finally:
        tracer.unwrap_all()
        runner.tracer = None


@contextlib.contextmanager
def root_span(tracer, name, roots):
    """A root span whose id is appended to ``roots``; nothing when not tracing."""
    if tracer is None:
        yield
        return
    with tracer.span(name) as s:
        yield
    roots.append(s.id)


def set_up(workload, work, seeds, nt, runner, tracer, roots):
    """Run the set-up SETUP_REPS times; the last one's inputs are kept."""
    times = []
    with traced(tracer, runner, nt):
        for r in range(SETUP_REPS):
            t0 = time.perf_counter()
            with root_span(tracer, "setup", roots):
                inputs = workload.setup(str(work / f"setup{r}"), seeds, nt, runner)
            times.append(time.perf_counter() - t0)
            if r:
                shutil.rmtree(work / f"setup{r - 1}")
    return inputs, times


def timed(workload, work, seeds, inputs, runner, ledger, budget, tracer=None, roots=None):
    """Repeat the workload's CLI sequence until ``budget`` seconds have run.

    Every iteration runs in the same directory, since some outputs record
    their input paths.  The first iteration's outputs are moved to ``it0``
    for the full output checks; every later one must reproduce their bytes.
    """
    it, keep = work / "it", work / "it0"
    want = digests(keep) if keep.exists() else None
    samples = []
    elapsed = 0.0
    while not samples or elapsed < budget:
        os.makedirs(it)
        c0, t0 = cpu_seconds(), time.perf_counter()
        with root_span(tracer, "iteration", roots):
            nets = workload.iteration(str(it), inputs, seeds, runner)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        samples.append({"wall_s": wall, "cpu_s": cpu, "networks": nets})
        elapsed += wall
        if want is None:
            os.rename(it, keep)
            want = digests(keep)
        else:
            ledger.check(digests(it) == want, "outputs differ from the first iteration's")
            shutil.rmtree(it)
    return samples


def run(args, root):
    nt = import_program(root)
    workload = WORKLOADS[args.workload]
    seeds = derive_seeds(args.seed)
    ledger = Ledger()
    runner = Runner(nt["cli"], ledger)
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = root / ".perfbench" / "work" / run_id
    tracer = Tracer(run_id) if args.trace else None
    setup_roots, roots = [], []
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup_times = set_up(workload, work, seeds, nt, runner, tracer, setup_roots)
        # with --trace 1, half the time runs untraced and half traced
        budget = args.seconds / 2 if tracer else args.seconds
        samples = {"untraced": timed(workload, work, seeds, inputs, runner, ledger, budget)}
        if tracer:
            with traced(tracer, runner, nt):
                samples["traced"] = timed(workload, work, seeds, inputs, runner, ledger, budget,
                                          tracer, roots)
        rss = peak_rss_mb()
        # full output checks and the cross-check against independent
        # references, on the first iteration, outside the timed part
        try:
            workload.check(str(work / "it0"), inputs, seeds, ledger)
        except Exception:  # a malformed output is a failed check, not a crash
            ledger.check(False, f"it0: {traceback.format_exc()[-800:]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [s["wall_s"] for s in samples["untraced"]]
    record = {"workload": workload.name, "seed": args.seed, "derived_seeds": seeds,
              "seconds": args.seconds, "trace": args.trace, "context": machine_context(),
              "setup_s": setup_times, "samples": samples, "wall_quartiles": quartiles(walls)}
    if tracer:
        metrics = trace_metrics(tracer, roots, setup_roots, walls, ledger)
        metrics["process.cpu_s"] = statistics.median(s["cpu_s"] for s in samples["untraced"])
        record["spans"] = [s.as_dict() for s in tracer.spans]
        report = {n: {"value": metrics[n], "unit": unit_of(n)} for n in instrument.per_layer_names()}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "nets_per_s": statistics.median(s["networks"] / s["wall_s"] for s in samples["untraced"]),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup_times),
            "ok_frac": 1.0 - ledger.total_failed / ledger.total_attempted,
        }
        report = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}
    record.update(attempted=ledger.attempted, failed=ledger.failed, failures=ledger.failures,
                  metrics=report)
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in ledger.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_frac = {ledger.total_failed}/{ledger.total_attempted} "
          f"(commands {ledger.failed['commands']}/{ledger.attempted['commands']}, "
          f"networks {ledger.failed['networks']}/{ledger.attempted['networks']}, "
          f"checks {ledger.failed['checks']}/{ledger.attempted['checks']}); "
          f"{len(walls)} untraced iterations, wall quartiles {quartiles(walls)}")
    return {
        "correct": ledger.total_failed == 0,
        "attempted": ledger.total_attempted,
        "failed": ledger.total_failed,
        "metrics": report,
    }


def trace_metrics(tracer, roots, setup_roots, untraced_walls, ledger):
    """Per-layer metrics: means over traced iterations (datagen: over set-ups)."""
    per_iter = instrument.root_metrics(tracer, roots)
    for m in per_iter:
        error = instrument.accounting_error(m)
        ledger.check(error <= 1e-9 * max(m["trace.wall_s"], 1.0),
                     f"layer self times miss the traced wall time by {error} s")
    metrics = {name: statistics.fmean(m[name] for m in per_iter) for name in per_iter[0]}
    setup = instrument.setup_metrics(tracer, setup_roots)
    for name in instrument.SETUP_METRICS:
        metrics[name] = statistics.fmean(m[name] for m in setup)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(untraced_walls)
    metrics["checks.fail_frac"] = ledger.total_failed / ledger.total_attempted
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
