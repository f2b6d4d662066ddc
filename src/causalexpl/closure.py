"""Derived binary relations over symbols.

ontt   -- transitive closure of the IS-A links
impco  -- implication induced by causal + ontological atoms, reflexive on
          symbolE and transitively closed

One routine closes a relation over masks (model.Symbol.bit).  The closure
index (compute_closures) keeps each relation as its rows both ways, a symbol
mapped to the mask of the symbols above or below it, and nothing else; the
oracle, which reasons in pairs, decodes the rows itself.
"""
from __future__ import annotations

import functools
from collections import defaultdict, namedtuple
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from .model import CausalAtom, OntAtom, Symbol, Theory, members

Rows = Mapping[Symbol, int]


class ClosureRelations(namedtuple("ClosureRelations", (
        "ontt_above",       # symbol -> mask of its IS-A super-concepts
        "ontt_below",       # symbol -> mask of its IS-A sub-concepts
        "impco_above",      # symbol -> mask of the symbols it implies
        "impco_below"))):   # symbol -> mask of the symbols implying it
    """The one closure index of a theory, built once per causal set: a
    symbol with no pair has no row."""
    __slots__ = ()


def _implied(mask: int, rows: Rows) -> int:
    """The OR of the rows of mask's members: with impco_above, the symbols
    that some member of mask impco-implies."""
    out = 0
    for s in members(mask):
        out |= rows.get(s, 0)
    return out


def _closure(ontology: Iterable[OntAtom], causal: Iterable[CausalAtom] = (),
             reflexive: bool = False) -> Tuple[Rows, Rows]:
    """Read-only rows of the transitive closure of the IS-A and cause
    edges: above maps a symbol to the mask of the symbols a non-empty edge
    path from it reaches, below maps a symbol to the mask of those that
    reach it.  reflexive adds every edge endpoint to its own rows."""
    step = defaultdict(int)
    for oa in ontology:
        step[oa.sub] |= oa.super.bit
    for ca in causal:
        step[ca.cause] |= ca.effect.bit
    above = {}
    for s, new in step.items():
        reached = 0
        while new:
            reached |= new
            new = _implied(new, step) & ~reached
        above[s] = reached
    if reflexive:  # the edges' sources (step's keys) and targets
        for s in members(functools.reduce(
                int.__or__, step.values(), sum(s.bit for s in step))):
            above[s] = above.get(s, 0) | s.bit
    below = defaultdict(int)
    for s, row in above.items():
        for t in members(row):
            below[t] |= s.bit
    return MappingProxyType(above), MappingProxyType(dict(below))


@functools.lru_cache(maxsize=1)
def _ontt_rows(ontology: FrozenSet[OntAtom]) -> Tuple[Rows, Rows]:
    """_closure(ontology), kept for the last ontology closed: no causal set
    changes the IS-A rows, so a run's causal sets share them."""
    return _closure(ontology)


def compute_closures(t: Theory) -> ClosureRelations:
    """The closure index of t's causal and IS-A atoms; impco is reflexive on
    symbolE, the endpoints of those atoms."""
    return ClosureRelations(*_ontt_rows(frozenset(t.ontology)),
                            *_closure(t.ontology, t.causal, reflexive=True))


def closures_of(t: Theory, closures: Dict[int, ClosureRelations],
                causal: int) -> ClosureRelations:
    """closures[causal], built on its first read as the closure index of t
    with the causal atoms of the mask causal: a run's one table, shared by
    its stages and its world walk."""
    c = closures.get(causal)
    if c is None:
        c = closures[causal] = compute_closures(t.with_causal(members(causal)))
    return c
