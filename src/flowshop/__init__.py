"""Permutation flow-shop scheduling toolkit.

Makespan semantics, heuristic baselines with NEH as the expert, an exact
enumeration oracle plus an exportable MIP model, a masked job-selection
MDP, a graph-encoder/attention-decoder policy trained by behavior
cloning on a built-in reverse-mode gradient core, and an experiment
harness with gap/makespan/runtime reporting.
"""

from .core import (
    Instance,
    completion_times,
    gap_percent,
    makespan,
    makespan_batch,
    validate_permutation,
)
from .errors import DataError, FlowshopError, NumericError, ValidationError
from .exact import brute_force, check_mip_solution, emit_mip, permutation_embedding
from .env import ExpertTrace, ScheduleState, mask, record_expert_traces, reset, step
from .heuristics import (
    HeuristicBudget,
    iterated_greedy,
    iterated_local_search,
    local_search_insert,
    neh,
    random_search,
)
from .instances import DatasetSpec, generate, load_dataset, parse_taillard, parse_vrf, save_dataset
from .policy import PolicyConfig, PolicyParams, bc_loss, build_graph, decode_step, encode, rollout_greedy
from .stats import wilcoxon_signed_rank
from .training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"
