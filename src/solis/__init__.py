"""Inference of optimal stochastic 0L-systems from a sequence of strings.

Given a trace (w_0, ..., w_m), this package builds the free system of all
productions that could have participated, enumerates or scores derivations,
finds the single derivation of maximum achievable probability together with
the system attaining it, and finds the stochastic system maximizing the
total probability of the trace over all derivations.
"""

from .compositions import StepAssignment
from .derivations import (
    DEFAULT_DERIVATION_CAP,
    Derivation,
    ProductionCounts,
    count_productions,
    derivation_probability,
    enumerate_derivations,
    probability_gradient,
    sequence_probability,
    step_gradients,
    step_values,
)
from .errors import (
    CapExceeded,
    FormatError,
    IncompatibleSequence,
    IncompatibleStep,
    MissingProduction,
    SolisError,
    WordLengthExceeded,
)
from .formats import (
    file_digest,
    format_real,
    parse_sequence_file,
    parse_system_file,
    parse_word,
    serialize_derivation,
    serialize_partial_system,
    serialize_system,
    serialize_word,
)
from .free_system import build_free_system
from .model import (
    EMPTY_WORD,
    LogLinear,
    Partial0LSystem,
    Production,
    S0LSystem,
    Sequence,
    Symbol,
    Word,
    occurrence_counts,
)
from .optimal_derivation import best_derivation, derivation_bound
from .optimal_system import (
    DEFAULT_EXPANSION_CAP,
    Monomial,
    PosynomialObjective,
    RestartTrace,
    SolverConfig,
    assemble_system,
    build_objective,
    infer_optimal_system,
    maximize,
)
from .sampler import MAX_WORD_LENGTH, SampleRecord, derive_step, sample_sequence

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DEFAULT_DERIVATION_CAP",
    "DEFAULT_EXPANSION_CAP",
    "Derivation",
    "EMPTY_WORD",
    "FormatError",
    "IncompatibleSequence",
    "IncompatibleStep",
    "LogLinear",
    "MAX_WORD_LENGTH",
    "MissingProduction",
    "Monomial",
    "Partial0LSystem",
    "PosynomialObjective",
    "Production",
    "ProductionCounts",
    "RestartTrace",
    "S0LSystem",
    "SampleRecord",
    "Sequence",
    "SolisError",
    "SolverConfig",
    "StepAssignment",
    "Symbol",
    "Word",
    "WordLengthExceeded",
    "assemble_system",
    "best_derivation",
    "build_free_system",
    "build_objective",
    "count_productions",
    "derivation_bound",
    "derivation_probability",
    "derive_step",
    "enumerate_derivations",
    "file_digest",
    "format_real",
    "infer_optimal_system",
    "maximize",
    "occurrence_counts",
    "parse_sequence_file",
    "parse_system_file",
    "parse_word",
    "probability_gradient",
    "sample_sequence",
    "sequence_probability",
    "serialize_derivation",
    "serialize_partial_system",
    "serialize_system",
    "serialize_word",
    "step_gradients",
    "step_values",
]
