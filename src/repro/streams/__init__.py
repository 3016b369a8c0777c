"""Edge-stream substrate: update model, multi-pass streams, space meter."""

from repro.streams.batch import EdgeBatch, VertexMembership
from repro.streams.cache import (
    AllBatchCache,
    BatchCachePolicy,
    LRUBatchCache,
    NoBatchCache,
    parse_byte_size,
    resolve_cache_policy,
)
from repro.streams.datasets import (
    BinaryUpdateWriter,
    DiskEdgeStream,
    compact_ids,
    convert_edge_list,
    degree_adversarial_order,
    deletion_heavy_updates,
    is_stream_path,
    open_disk_stream,
    read_snap_chunks,
    save_npz_updates,
    sliding_window_updates,
    write_binary_updates,
)
from repro.streams.stream import (
    EdgeStream,
    Update,
    check_batch_size,
    insertion_stream,
    turnstile_stream,
)
from repro.streams.space import SpaceMeter
from repro.streams.generators import (
    adversarial_order_stream,
    stream_from_graph,
    turnstile_churn_stream,
    split_substreams,
)
from repro.streams.models import (
    AdjacencyListStream,
    ListItem,
    adjacency_list_stream,
    random_order_stream,
)

__all__ = [
    "EdgeBatch",
    "EdgeStream",
    "Update",
    "VertexMembership",
    "check_batch_size",
    "insertion_stream",
    "turnstile_stream",
    "AllBatchCache",
    "BatchCachePolicy",
    "LRUBatchCache",
    "NoBatchCache",
    "parse_byte_size",
    "resolve_cache_policy",
    "BinaryUpdateWriter",
    "DiskEdgeStream",
    "compact_ids",
    "convert_edge_list",
    "degree_adversarial_order",
    "deletion_heavy_updates",
    "is_stream_path",
    "open_disk_stream",
    "read_snap_chunks",
    "save_npz_updates",
    "sliding_window_updates",
    "write_binary_updates",
    "SpaceMeter",
    "adversarial_order_stream",
    "stream_from_graph",
    "turnstile_churn_stream",
    "split_substreams",
    "AdjacencyListStream",
    "ListItem",
    "adjacency_list_stream",
    "random_order_stream",
]
