#!/usr/bin/env python3
"""A tour of the eight neuron centrality measures on tiny handcrafted networks.

Each measure has a closed form on at least one of these layered networks
(K2, the paths P3 and P4, the 4-cycle K2,2 and a star), so you can see at a
glance what it responds to and on which graph view it operates.
"""

import numpy as np

from neurotopo import (
    LayeredNetwork,
    avg_neighbor_strength,
    bipartite_clustering,
    build_graph,
    current_flow_closeness,
    harmonic,
    max_clique_count,
    second_order,
    strength,
    subgraph_centrality,
    threshold_view,
)
from neurotopo.model import VIEW_ORIGINAL, VIEW_POSITIVE


def graph(*weights):
    """The graph of a layered network given its weight matrices as nested lists."""
    weights = [np.array(w, dtype=float) for w in weights]
    arch = [w.shape[0] for w in weights] + [weights[-1].shape[1]]
    return build_graph(LayeredNetwork(arch=arch, weights=weights))


def show(title, values, note=""):
    rounded = np.round(values, 5).tolist()
    print(f"  {title:34} {rounded}  {note}")


def main():
    print("== strength and neighbor strength (signed, original view) ==")
    path = graph([[0.5]], [[-0.2]])
    v = threshold_view(path, VIEW_ORIGINAL)
    show("s on path 0.5 / -0.2", strength(v), "(middle node nets +0.3)")
    show("snn on the same path", avg_neighbor_strength(v))

    print("\n== second order: return-time spread of an unbiased walk ==")
    k2 = graph([[1.0]])
    k22 = graph([[1.0, 1.0], [1.0, 1.0]])
    show("so on K2", second_order(threshold_view(k2, VIEW_POSITIVE)),
         "(the walk bounces deterministically: zero spread)")
    show("so on K2,2 (the 4-cycle)", second_order(threshold_view(k22, VIEW_POSITIVE)),
         "(return time 2 + 2·Geometric(1/2): sqrt(8))")

    print("\n== subgraph centrality: closed walks weighted by 1/length! ==")
    p3 = graph([[1.0]], [[1.0]])
    show("sg on K2", subgraph_centrality(threshold_view(k2, VIEW_POSITIVE)),
         f"(cosh(1) = {np.cosh(1):.5f})")
    show("sg on P3", subgraph_centrality(threshold_view(p3, VIEW_POSITIVE)),
         "(middle cosh(sqrt 2), ends (1 + cosh(sqrt 2))/2)")

    print("\n== maximum cliques: layered graphs have no triangles ==")
    show("mc on P3", max_clique_count(threshold_view(p3, VIEW_POSITIVE)),
         "(every maximum clique is an edge: the degree)")

    print("\n== bipartite clustering: second-neighbor overlap ==")
    show("bc on K2,2", bipartite_clustering(threshold_view(k22, VIEW_POSITIVE)),
         "(every second neighbor fully overlaps)")
    p4 = graph([[1.0]], [[1.0]], [[1.0]])
    show("bc on P4", bipartite_clustering(threshold_view(p4, VIEW_POSITIVE)))
    star = graph([[1.0, 1.0, 1.0]])
    show("bc on a star around node 0", bipartite_clustering(threshold_view(star, VIEW_POSITIVE)),
         "(the center has no second neighbors)")

    print("\n== harmonic: reciprocal path lengths, weights as distances ==")
    show("hc on unit P3", harmonic(threshold_view(p3, VIEW_POSITIVE)), "(ends: 1 + 1/2)")
    short = graph([[0.5]])
    show("hc on K2 with weight 0.5", harmonic(threshold_view(short, VIEW_POSITIVE)),
         "(short edge means close: 1/0.5)")

    print("\n== current flow: every path conducts ==")
    show("cfc on unit P3", current_flow_closeness(threshold_view(p3, VIEW_ORIGINAL)),
         "(series resistance: ends see 1+2 ohms)")
    show("cfc on unit K2,2", current_flow_closeness(threshold_view(k22, VIEW_ORIGINAL)),
         "(parallel paths help: 3/(3/4 + 3/4 + 1))")


if __name__ == "__main__":
    main()
