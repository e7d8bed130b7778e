"""chordalg: deterministic (1 + eps)-approximation algorithms for coloring
and maximum independent set on chordal graphs, exact oracles to check them,
and a round-accounted simulator for their distributed variants."""

from .errors import (
    BadEpsilon, BadSpec, ChordalgError, DiameterTooSmall, EpsilonTooSmall,
    Infeasible, NonTermination, NotChordal, NotInterval, NotProperInterval,
    ParseError, RadiusTooSmall, RoundCapExceeded, TooLarge, UnknownNode,
    VerificationFailed, debug_invariants, set_debug_invariants,
)
from .graphs import (
    EliminationOrder, Graph, alpha_oracle, brute_alpha, brute_chromatic,
    greedy_color_reverse_peo, is_chordal, mcs_order, omega_oracle,
    verify_coloring, verify_is,
)
from .generators import gen_caterpillar, gen_chordal, gen_interval, gen_path, gen_spider
from .cliqueforest import (
    CliqueForest, IntervalStrip, PeelPath, classify_paths, clique_forest,
    clique_word, local_view, maximal_cliques, remove_paths,
    strips_from_traces,
)
from .localsim import (
    Collect, GatherProgram, Send, StagedProgram, StepResult, Transcript, run,
)
from .intervals import color_interval, distance_k_mis, extend_coloring, mis_interval
from .mvc import (
    Layering, color_layers, correct_colors, mvc_centralized, mvc_distributed,
    prune_layers,
)
from .mis import (
    MisParams, PeelState, mis_chordal_centralized, mis_chordal_distributed,
    mis_interval_distributed, verify_absorption,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
