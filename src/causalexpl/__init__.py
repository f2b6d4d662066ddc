"""Solver-free engine for deriving, pruning and verifying causal explanations."""

from .closure import ClosureRelations, compute_closures
from .generate import generate
from .model import (CausalAtom, Clause, ExplanationAtom, Literal, OntAtom,
                    Symbol, Theory, sym, symbol_universe, validate_theory)
from .optimize import optimize

__all__ = [
    "CausalAtom", "Clause", "ClosureRelations", "ExplanationAtom", "Literal",
    "OntAtom", "Symbol", "Theory", "compute_closures", "generate",
    "optimize", "sym", "symbol_universe", "validate_theory",
]
