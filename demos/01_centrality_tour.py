#!/usr/bin/env python3
"""A tour of the eight neuron centrality measures on tiny handcrafted graphs.

Each measure has a closed form on at least one of these graphs, so you can
see at a glance what it responds to and on which graph view it operates.
"""

import numpy as np

from neurotopo import (
    avg_neighbor_strength,
    bipartite_clustering,
    current_flow_closeness,
    harmonic,
    max_clique_count,
    neuron_graph,
    second_order,
    strength,
    subgraph_centrality,
    threshold_view,
)
from neurotopo.model import VIEW_ORIGINAL, VIEW_POSITIVE


def graph(n, edges):
    w = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    for i, j, weight in edges:
        w[i, j] = w[j, i] = weight
        mask[i, j] = mask[j, i] = True
    return neuron_graph(weights=w, edge_mask=mask)


def show(title, values, note=""):
    rounded = np.round(values, 5).tolist()
    print(f"  {title:34} {rounded}  {note}")


def main():
    print("== strength and neighbor strength (signed, original view) ==")
    path = graph(3, [(0, 1, 0.5), (1, 2, -0.2)])
    v = threshold_view(path, VIEW_ORIGINAL)
    show("s on path 0.5 / -0.2", strength(v), "(middle node nets +0.3)")
    show("snn on the same path", avg_neighbor_strength(v))

    print("\n== second order: return-time spread of an unbiased walk ==")
    k2 = graph(2, [(0, 1, 1.0)])
    k3 = graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    show("so on K2", second_order(threshold_view(k2, VIEW_POSITIVE)),
         "(the walk bounces deterministically: zero spread)")
    show("so on K3", second_order(threshold_view(k3, VIEW_POSITIVE)),
         "(exactly sqrt(2))")

    print("\n== subgraph centrality: closed walks weighted by 1/length! ==")
    show("sg on K2", subgraph_centrality(threshold_view(k2, VIEW_POSITIVE)),
         f"(cosh(1) = {np.cosh(1):.5f})")
    show("sg on K3", subgraph_centrality(threshold_view(k3, VIEW_POSITIVE)),
         "(e^2/3 + 2e^-1/3)")

    print("\n== maximum cliques ==")
    bowtie = graph(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (3, 4, 1.0)])
    show("mc on two triangles sharing 0", max_clique_count(threshold_view(bowtie, VIEW_POSITIVE)),
         "(the shared node sits in both)")

    print("\n== bipartite clustering: second-neighbor overlap ==")
    k22 = graph(4, [(0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    show("bc on K_{2,2}", bipartite_clustering(threshold_view(k22, VIEW_POSITIVE)),
         "(every second neighbor fully overlaps)")
    p4 = graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    show("bc on P4", bipartite_clustering(threshold_view(p4, VIEW_POSITIVE)))

    print("\n== harmonic: reciprocal path lengths, weights as distances ==")
    p3 = graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    show("hc on unit P3", harmonic(threshold_view(p3, VIEW_POSITIVE)), "(ends: 1 + 1/2)")
    short = graph(2, [(0, 1, 0.5)])
    show("hc on K2 with weight 0.5", harmonic(threshold_view(short, VIEW_POSITIVE)),
         "(short edge means close: 1/0.5)")

    print("\n== current flow: every path conducts ==")
    show("cfc on unit P3", current_flow_closeness(threshold_view(p3, VIEW_ORIGINAL)),
         "(series resistance: ends see 1+2 ohms)")
    show("cfc on unit K3", current_flow_closeness(threshold_view(k3, VIEW_ORIGINAL)),
         "(parallel paths help: 2/(4/3))")


if __name__ == "__main__":
    main()
