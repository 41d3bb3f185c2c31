#!/usr/bin/env python3
"""End-to-end miniature of the population study, in-process.

Trains a dozen small networks on the surrogate digit corpus (different weight
seeds, shared batch order), measures hidden-neuron centralities, and shows how
layer-mean strength relates to test accuracy.  Writes scatter data and an SVG
under demos/output/.  Takes well under a minute on a laptop core.

The same flow is available from the shell:

    neurotopo train   --data DATA_DIR --count 12 --arch 784,16,8,10 ... --out RUN
    neurotopo measure --models RUN --measures s,bc,sg --out RUN/measures.csv
    neurotopo plot    --what scatter --measures-csv RUN/measures.csv ...
"""

import os
import tempfile

from neurotopo import measure_all
from neurotopo.artifacts import write_csv, write_text
from neurotopo.datagen import write_synthetic_benchmark
from neurotopo.descriptors import layer_mean, scatter_points
from neurotopo.model import load_model
from neurotopo.plots import svg_scatter
from neurotopo.trainer import TrainingConfig, generate_population, load_idx

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        print("writing a 2000/400 surrogate digit corpus ...")
        paths = write_synthetic_benchmark(work, train_count=2000, test_count=400, seed=7)
        train_set = load_idx(paths["train_images"], paths["train_labels"])
        test_set = load_idx(paths["test_images"], paths["test_labels"])

        config = TrainingConfig(arch=(784, 16, 8, 10), learning_rate=0.01,
                                batch_size=100, epochs=4, seed=0)
        print("training 12 networks (weight seeds 0..11, shared batch order) ...")
        manifest = generate_population(train_set, test_set, config, list(range(12)),
                                       os.path.join(work, "models"), dataset_id="demo")

        tables = []
        for entry in manifest:
            net = load_model(os.path.join(work, "models", entry["model_path"]))
            tables.append(measure_all(net, measures=("s", "bc", "sg")))

        print("\nper-network layer-mean strength vs test accuracy:")
        print(f"  {'network':10} {'L1 mean s':>10} {'L2 mean s':>10} {'test acc':>9}")
        for t in sorted(tables, key=lambda t: t.test_acc):
            x = layer_mean(t, "s", 1).value
            y = layer_mean(t, "s", 2).value
            print(f"  {t.network_id:10} {x:10.3f} {y:10.3f} {t.test_acc:9.3f}")

        points = scatter_points(tables, "s")
        csv_path = os.path.join(OUT, "strength_scatter.csv")
        write_csv(csv_path, ["network_id", "x", "y", "test_acc"], points)
        svg_path = os.path.join(OUT, "strength_scatter.svg")
        write_text(svg_path, [svg_scatter(points, "layer-mean strength vs accuracy",
                                          "layer-1 mean s", "layer-2 mean s")])
        print(f"\nwrote {csv_path}")
        print(f"wrote {svg_path}")
        print("higher-accuracy networks tend toward less inhibitory hidden layers;")
        print("at this miniature scale the trend is visible but noisy - the")
        print("acceptance suite runs the full 60-network desk study.")


if __name__ == "__main__":
    main()
