"""Complex-network analysis of fully connected neural networks.

Trained networks become weighted undirected graphs; per-neuron centrality
measures, clustered into a Bag-of-Neurons vocabulary, characterize network
populations and their relation to classification performance.
"""

from .bon import (
    CrossBenchmarkJsd,
    ElbowResult,
    PopulationRecord,
    Vocabulary,
    accuracy_groups,
    cross_benchmark_jsd,
    elbow_scan,
    jsd,
    kmeans,
    load_vocabulary,
    occurrence,
    save_vocabulary,
)
from .centrality import (
    MEASURE_ORDER,
    MEASURES,
    NeuronMeasures,
    avg_neighbor_strength,
    bipartite_clustering,
    current_flow_closeness,
    harmonic,
    max_clique_count,
    measure_all,
    read_measures_csv,
    second_order,
    strength,
    subgraph_centrality,
    write_measures_csv,
)
from .descriptors import (
    FeatureMatrix,
    build_feature_matrix,
    feature_matrix_from_values,
    layer_mean,
    pearson_matrix,
    redundancy_filter,
    scatter_points,
)
from .errors import (
    FormatError,
    NeurotopoError,
    NumericalError,
    ResourceBudgetError,
    StructuralError,
)
from .model import (
    GraphView,
    LayeredNetwork,
    NeuronGraph,
    build_graph,
    largest_component,
    load_model,
    save_model,
    threshold_view,
)
from .trainer import (
    Dataset,
    TrainingConfig,
    evaluate,
    forward,
    generate_population,
    init_network,
    load_idx,
    loss_and_gradients,
    train,
)

__version__ = "0.1.0"
