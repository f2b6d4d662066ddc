"""Derived binary relations over symbols.

ontt   -- transitive closure of the IS-A links
impco  -- implication induced by causal + ontological atoms, reflexive on
          symbolE and transitively closed

ont_closure and impco_closure give each as pairs; the closure index
(compute_closures) keeps ontt as symbol rows and impco as mask rows.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from types import MappingProxyType
from typing import FrozenSet, Iterable, Iterator, Mapping, Tuple

from .model import CausalAtom, OntAtom, Symbol, Theory, symbol_universe

Pair = Tuple[Symbol, Symbol]
PairSet = FrozenSet[Pair]
Rows = Mapping[Symbol, FrozenSet[Symbol]]


def relation_rows(pairs: Iterable[Pair]) -> Tuple[Rows, Rows]:
    """Read-only forward (a -> {b}) and backward (b -> {a}) rows of a
    relation; a symbol with no pair has no row."""
    fwd, bwd = defaultdict(set), defaultdict(set)
    for a, b in pairs:
        fwd[a].add(b)
        bwd[b].add(a)
    return tuple(MappingProxyType({s: frozenset(row) for s, row in
                                   rows.items()}) for rows in (fwd, bwd))


class ClosureRelations(namedtuple("ClosureRelations", (
        "ontt_supers",      # sub -> supers
        "ontt_subs",        # super -> subs
        "impco_above",      # bit -> mask of the symbols it implies
        "impco_below"))):   # bit -> mask of the symbols implying it
    """The one closure index of a theory, built once per causal set: a
    symbol (or bit) with no pair has no row."""
    __slots__ = ()


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first, each as an int."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _implied(mask: int, rows: Mapping[int, int]) -> int:
    """The OR of the rows of mask's bits: with impco_above, the symbols
    that some member of mask impco-implies."""
    out = 0
    for low in _bits(mask):
        out |= rows.get(low, 0)
    return out


def _reachability(edges: Iterable[Pair]) -> PairSet:
    """All (u, v) with a non-empty edge path from u to v."""
    succ, _ = relation_rows(edges)
    closed = set()
    for source in succ:
        reached = set()
        pending = list(succ[source])
        while pending:
            node = pending.pop()
            if node in reached:
                continue
            reached.add(node)
            pending.extend(succ.get(node, ()))
        closed.update((source, node) for node in reached)
    return frozenset(closed)


def ont_closure(ontology: Iterable[OntAtom]) -> PairSet:
    """Least fixpoint of IS-A transitivity; contains every input pair."""
    return _reachability((oa.sub, oa.super) for oa in ontology)


def impco_closure(causal: Iterable[CausalAtom], ontology: Iterable[OntAtom],
                  symbol_e: Iterable[Symbol]) -> PairSet:
    """Transitive closure of cause+ont edges plus reflexivity on symbolE."""
    edges = [(ca.cause, ca.effect) for ca in causal]
    edges.extend((oa.sub, oa.super) for oa in ontology)
    closed = set(_reachability(edges))
    closed.update((s, s) for s in symbol_e)
    return frozenset(closed)


def compute_closures(t: Theory) -> ClosureRelations:
    _, symbol_e = symbol_universe(t)
    above, below = defaultdict(int), defaultdict(int)
    for a, b in impco_closure(t.causal, t.ontology, symbol_e):
        above[a.bit] |= b.bit
        below[b.bit] |= a.bit
    return ClosureRelations(*relation_rows(ont_closure(t.ontology)),
                            MappingProxyType(dict(above)),
                            MappingProxyType(dict(below)))
