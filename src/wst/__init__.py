"""Weakly supervised transducer training at desk scale.

A WFST-formulated transducer loss whose training lattice carries token-bypass
and blank-bypass star arcs, making training robust to substitution, insertion
and deletion errors in transcripts; plus the supporting machinery to verify
it: a brute-force enumeration oracle, transcript corruption and WER tools,
and a small trainable transducer.
"""

from .corruption import CorruptionSpec, corrupt, corrupt_dataset, edit_counts, measure_corruption, wer
from .graphs import (
    PenaltyConfig,
    build_rnnt_lattice,
    build_transcript_graph,
    build_ws_transcript_graph,
    build_wst_lattice,
    penalties_for,
)
from .loss import batched_grid_loss, log_softmax, rnnt_loss, wst_loss
from .numerics import NEG_INF, log_add, log_sum, star_log_prob
from .oracle import brute_force_loss, enumerate_paths
from .toytrain import (
    ExperimentConfig,
    ToyModelParams,
    ToyTask,
    generate_task_data,
    greedy_decode,
    run_experiment,
    train,
)
from .vocab import Vocab, validate_transcript
from .wfst import (
    EPSILON,
    Arc,
    ArcKind,
    Wfst,
    arc_posteriors,
    export_dot,
    export_json,
    topo_sort,
    total_weight,
    wfst_from_json,
)

__version__ = "0.1.0"
