"""Inference of optimal stochastic 0L-systems from a sequence of strings.

Given a trace (w_0, ..., w_m), this package builds the free system of all
productions that could have participated, enumerates or scores derivations,
finds the single derivation of maximum achievable probability together with
the system attaining it, and finds the stochastic system maximizing the
total probability of the trace over all derivations.

Public names load their module on first access (PEP 562), so importing the
package, or a command line run that needs few modules, compiles no others.
"""

import importlib

__version__ = "0.1.0"

#: every public name and the module that defines it
_EXPORTS = {
    "CapExceeded": "errors",
    "DEFAULT_DERIVATION_CAP": "derivations",
    "DEFAULT_EXPANSION_CAP": "optimal_system",
    "Derivation": "derivations",
    "FormatError": "errors",
    "IncompatibleSequence": "errors",
    "LogLinear": "model",
    "MAX_WORD_LENGTH": "sampler",
    "MissingProduction": "errors",
    "Monomial": "optimal_system",
    "Partial0LSystem": "model",
    "PosynomialObjective": "optimal_system",
    "Production": "model",
    "ProductionCounts": "derivations",
    "RestartTrace": "optimal_system",
    "S0LSystem": "model",
    "SampleRecord": "sampler",
    "Sequence": "model",
    "SolisError": "errors",
    "SolverConfig": "optimal_system",
    "StepAssignment": "derivations",
    "Symbol": "model",
    "Word": "model",
    "WordLengthExceeded": "errors",
    "assemble_system": "optimal_system",
    "best_derivation": "optimal_derivation",
    "build_free_system": "free_system",
    "build_objective": "optimal_system",
    "count_productions": "derivations",
    "derivation_bound": "optimal_derivation",
    "derivation_probability": "derivations",
    "enumerate_derivations": "derivations",
    "file_digest": "formats",
    "format_real": "formats",
    "infer_optimal_system": "optimal_system",
    "maximize": "optimal_system",
    "occurrence_counts": "model",
    "parse_sequence_file": "formats",
    "parse_system_file": "formats",
    "parse_word": "formats",
    "sample_sequence": "sampler",
    "sequence_probability": "lattice",
    "serialize_derivation": "formats",
    "serialize_partial_system": "formats",
    "serialize_system": "formats",
    "serialize_word": "formats",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
