"""Exact computations in the first Grigorchuk group.

The package provides free reduction and the tree action, hash-consed
element identity, weighted minimal forms, growth counting, the
section-pair transducer with its file format and cycle analysis, the
graph construction algorithm, and the weight optimizer, together with a
command-line front end.
"""

from .words import (act, free_reduce, in_B, in_H, pair_in_section_image,
                    psi, psi_preimage_basic, rev, sections, sigma, tau)
from .elements import element_of, is_trivial, words_equal
from .minforms import (MinimalForms, SCALE, TUNED_WEIGHTS, UNIT_WEIGHTS,
                       parse_weights, word_weight)
from .growth import (BoundParams, alpha_of_eta, check_subgroup_growth, gamma,
                     gamma_by_signature, gamma_table, lower_bound_log_gamma)
from .automaton import (CycleReport, GraphFormatError, TransducerGraph,
                        TransduceError, VerificationReport, first_loop_ratio,
                        max_cycle_ratio, parse_graph, preimage_constant,
                        serialize_graph, transduce, verify_graph)
from .builder import BuildParams, build
from .optimizer import (OptimizerSchedule, TraceRow, optimize_weights,
                        trace_csv)

__all__ = [
    "act", "free_reduce", "in_B", "in_H", "pair_in_section_image", "psi",
    "psi_preimage_basic", "rev", "sections", "sigma", "tau",
    "element_of", "is_trivial", "words_equal",
    "MinimalForms", "SCALE", "TUNED_WEIGHTS", "UNIT_WEIGHTS",
    "parse_weights", "word_weight",
    "BoundParams", "alpha_of_eta", "check_subgroup_growth", "gamma",
    "gamma_by_signature", "gamma_table", "lower_bound_log_gamma",
    "CycleReport", "GraphFormatError", "TransducerGraph", "TransduceError",
    "VerificationReport", "first_loop_ratio", "max_cycle_ratio",
    "parse_graph", "preimage_constant", "serialize_graph", "transduce",
    "verify_graph",
    "BuildParams", "build",
    "OptimizerSchedule", "TraceRow", "optimize_weights", "trace_csv",
]

__version__ = "0.1.0"
