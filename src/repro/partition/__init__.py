"""Graph partitioning: the repo's METIS substitute plus simple baselines."""

from .graph import Graph, contract, heavy_edge_matching
from .metrics import (
    PartitionReport,
    edge_cut,
    edges_per_part,
    load_imbalance,
    partition_report,
    replication_overhead,
)
from .multilevel import multilevel_bisect, partition_graph
from .simple import coordinate_partition, natural_partition

__all__ = [
    "Graph",
    "contract",
    "heavy_edge_matching",
    "PartitionReport",
    "edge_cut",
    "edges_per_part",
    "load_imbalance",
    "partition_report",
    "replication_overhead",
    "multilevel_bisect",
    "partition_graph",
    "coordinate_partition",
    "natural_partition",
]
