"""Discrete-HMM training toolkit with cluster-weighted Baum-Welch.

Redundant training sequences are grouped into weighted representatives
(exact-match Euclidean or warp-tolerant DTW), and the frequency weights
multiply the expected counts during EM re-estimation, cutting training
time without changing the fitted parameters.
"""

from .clustering import (
    ClusterTable,
    build_clusters,
    filter_low_weight,
    load_cluster_table,
    save_cluster_table,
)
from .dtw import dtw_distance, euclidean_distance
from .inference import (
    ImpossibleSequenceError,
    length_blocks,
    likelihood,
    score_block,
    viterbi,
    viterbi_block,
)
from .model import (
    Dataset,
    HmmModel,
    load_distinct_sequences,
    load_model,
    load_sequences,
    sample_sequences,
    save_model,
    save_sequences,
    validate_model,
)
from .training import (
    TrainingConfig,
    TrainingTrace,
    em_train,
    initialize_model,
    weighted_em_train,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterTable",
    "Dataset",
    "HmmModel",
    "ImpossibleSequenceError",
    "TrainingConfig",
    "TrainingTrace",
    "build_clusters",
    "dtw_distance",
    "em_train",
    "euclidean_distance",
    "filter_low_weight",
    "initialize_model",
    "length_blocks",
    "likelihood",
    "load_cluster_table",
    "load_distinct_sequences",
    "load_model",
    "load_sequences",
    "sample_sequences",
    "save_cluster_table",
    "save_model",
    "save_sequences",
    "score_block",
    "validate_model",
    "viterbi",
    "viterbi_block",
    "weighted_em_train",
    "write_trace_csv",
]
