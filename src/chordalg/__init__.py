"""chordalg: deterministic (1 + eps)-approximation algorithms for coloring
and maximum independent set on chordal graphs, exact oracles to check them,
and a round-accounted simulator for their distributed variants."""

from .errors import (
    AlphaTooLarge, BadEpsilon, BadSpec, ChordalgError, DiameterTooSmall,
    EpsilonTooSmall, Infeasible, NonTermination, NotChordal, NotInterval,
    NotProperInterval, ParseError, RadiusTooSmall, RoundCapExceeded, TooLarge,
    UnknownNode, VerificationFailed, debug_invariants, set_debug_invariants,
)
from .graphs import (
    EliminationOrder, Graph, alpha_oracle, brute_alpha, brute_chromatic,
    greedy_color_reverse_peo, is_chordal, mcs_order, omega_oracle,
    verify_coloring, verify_is,
)
from .generators import gen_caterpillar, gen_chordal, gen_interval, gen_path, gen_spider
from .cliqueforest import (
    CliqueForest, ForestPath, IntervalStrip, classify_paths, clique_forest,
    clique_word, local_view, maximal_cliques, path_diameter,
    remove_paths, strips_from_traces,
)
from .localsim import (
    Collect, GatherProgram, Send, StagedProgram, StepResult, Transcript,
    gather, run,
)
from .intervals import (
    SkeletonPairs, color_interval, color_interval_distributed, distance_k_mis,
    distance_k_mis_distributed, extend_coloring, is_proper_interval,
    mis_interval, remove_dominated, skeleton_pairs,
)
from .mvc import (
    Layering, color_layers, correct_colors, mvc_centralized, mvc_distributed,
    prune_layers,
)
from .mis import (
    MisParams, PeelState, absorbing_mis, mis_chordal_centralized,
    mis_chordal_distributed, mis_interval_distributed, residual_alpha_check,
    verify_absorption,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
