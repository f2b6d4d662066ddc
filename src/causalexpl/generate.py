"""Stage 1: derive candidate explanation atoms.

Initial atoms come from a handful of base rules over the closures, plus a
double-ontology rule with dominance pruning.  Seeds are then extended by
the transitive condition-gathering fixpoint, which keeps only the
subset-minimal condition sets of each (source, target) pair (up to symbols
on implication cycles).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from .closure import ClosureRelations, compute_closures
from .model import ExplanationAtom, Symbol, Theory, canonical_conditions


@dataclass(frozen=True)
class InitialExplanation:
    """source explains target because {source, extra}, without transitivity."""
    source: Symbol
    target: Symbol
    extra: Symbol


def ecinit_base(t: Theory, c: ClosureRelations) -> FrozenSet[InitialExplanation]:
    """The non-transitive rules.

    Four rules yield (i, j, i); a fifth yields (i, j, j) when j specialises
    the effect but is not already implied by i.  That fifth rule is what
    makes the double-ontology rule below well-founded.
    """
    out: Set[InitialExplanation] = set()
    for ca in t.causal:
        i, x = ca.cause, ca.effect
        out.add(InitialExplanation(i, x, i))
        for j in c.ontt_subs.get(x, ()):
            if c.impco_has(i, j):
                out.add(InitialExplanation(i, j, i))
            else:
                out.add(InitialExplanation(i, j, j))
        for j in c.ontt_supers.get(x, ()):
            out.add(InitialExplanation(i, j, i))
        for e in c.ontt_subs.get(x, ()):
            if not c.impco_has(i, e):
                continue
            for j in c.ontt_supers.get(e, ()):
                out.add(InitialExplanation(i, j, i))
    return frozenset(out)


def ecinit_double_ontology(t: Theory, c: ClosureRelations,
                           base: FrozenSet[InitialExplanation],
                           ) -> FrozenSet[InitialExplanation]:
    """Candidates (i, j, e) with e a common sub-concept witness.

    Only fires for (i, j) pairs with no base atom; candidates with a strictly
    weaker sibling witness (under impcos) are dropped.
    """
    blocked = set()   # (i, j) pairs already covered by a base atom
    witnesses = set() # (i, e) with ecinit(i, e, e)
    for init in base:
        if init.extra == init.source or init.extra == init.target:
            blocked.add((init.source, init.target))
        if init.extra == init.target:
            witnesses.add((init.source, init.target))

    candidates: Set[InitialExplanation] = set()
    for ca in t.causal:
        i, x = ca.cause, ca.effect
        for e in c.ontt_subs.get(x, ()):
            if (i, e) not in witnesses:
                continue
            for j in c.ontt_supers.get(e, ()):
                if (i, j) in blocked:
                    continue
                candidates.add(InitialExplanation(i, j, e))

    by_pair = defaultdict(set)
    for cand in candidates:
        by_pair[(cand.source, cand.target)].add(cand.extra)
    kept = set()
    for cand in candidates:
        extras = by_pair[(cand.source, cand.target)]
        dominated = any((cand.extra, e1) in c.impcos
                        for e1 in extras if e1 != cand.extra)
        if not dominated:
            kept.add(cand)
    return frozenset(kept)


def ecinit_full(t: Theory, c: ClosureRelations,
                base: FrozenSet[InitialExplanation],
                ) -> FrozenSet[InitialExplanation]:
    """Base atoms plus every double-ontology candidate, unguarded.

    The guards in ecinit_double_ontology are sound for seeding but can
    starve the transitive stage: a suppressed witness atom may be exactly
    the step that lets a longer path collapse onto a smaller condition set.
    The gathering fixpoint therefore composes over this full relation.
    """
    out = set(base)
    for ca in t.causal:
        i, x = ca.cause, ca.effect
        for e in c.ontt_subs.get(x, ()):
            if c.impco_has(i, e):
                continue
            for j in c.ontt_supers.get(e, ()):
                out.add(InitialExplanation(i, j, e))
    return frozenset(out)


def seed_ecsets(inits: FrozenSet[InitialExplanation]) -> FrozenSet[ExplanationAtom]:
    """Per (source, target): {i} beats {i,j}, which beats the {i,e} witnesses."""
    by_pair = defaultdict(set)
    for init in inits:
        by_pair[(init.source, init.target)].add(init.extra)
    atoms: Set[ExplanationAtom] = set()
    for (i, j), extras in by_pair.items():
        if i in extras:
            atoms.add(ExplanationAtom(i, j, canonical_conditions((i,))))
        elif j in extras:
            atoms.add(ExplanationAtom(i, j, canonical_conditions((i, j))))
        else:
            for e in extras:
                atoms.add(ExplanationAtom(i, j, canonical_conditions((i, e))))
    return frozenset(atoms)


def gather_transitive(seeds: FrozenSet[ExplanationAtom],
                      inits: FrozenSet[InitialExplanation],
                      cyclic: FrozenSet[Symbol] = frozenset(),
                      ) -> FrozenSet[ExplanationAtom]:
    """Condition-gathering fixpoint over an antichain of minimal sets.

    (i,k,S) composed with an initial (k,j,e2), e2 != k, yields (i,j,S+{e2});
    an initial (k,j,k) extends the path without growing the set.  For each
    (i,j) only the subset-minimal sets are kept: a new set is dropped when
    a kept set is a subset of it, and evicts the kept sets it is a strict
    subset of.  Evaluation is semi-naive: each round composes only the sets
    the round before added and still holds.

    Dominance only applies between sets that hold the same members of
    cyclic (symbols on an impco cycle): reduce_conditions can shrink such a
    superset to a set the optimizer keeps.  With no cycle the result is the
    set of subset-minimal atoms of the full saturation.
    """
    inits_from = defaultdict(list)
    for init in inits:
        inits_from[init.source].append((init.target, init.extra))

    # (i, j, members in cyclic) -> the antichain of minimal condition sets
    state: Dict[Tuple[Symbol, Symbol, FrozenSet[Symbol]],
                Set[FrozenSet[Symbol]]] = defaultdict(set)

    def add(i: Symbol, j: Symbol, new: FrozenSet[Symbol]) -> bool:
        kept = state[(i, j, new & cyclic)]
        if any(map(new.issuperset, kept)):
            return False
        kept.difference_update(list(filter(new.__lt__, kept)))
        kept.add(new)
        return True

    delta = {(atom.source, atom.target, frozenset(atom.conditions))
             for atom in seeds}
    delta = {key for key in delta if add(*key)}
    while delta:
        added = set()
        for i, k, conditions in delta:
            if conditions not in state[(i, k, conditions & cyclic)]:
                continue  # evicted since it was added
            for j, e2 in inits_from.get(k, ()):
                new = conditions if e2 == k else conditions | {e2}
                if add(i, j, new):
                    added.add((i, j, new))
        delta = added

    return frozenset(ExplanationAtom(i, j, canonical_conditions(conds))
                     for (i, j, _), sets in state.items()
                     for conds in sets)


def reduce_conditions(atoms: FrozenSet[ExplanationAtom], c: ClosureRelations
                      ) -> FrozenSet[ExplanationAtom]:
    """Close the atom set under single-element removal.

    A member other than the explaining symbol may be dropped when another
    member impco-implies it.  All reduced variants are kept alongside the
    originals; the optimizer decides what survives.
    """
    out = set(atoms)
    frontier = list(atoms)
    while frontier:
        atom = frontier.pop()
        conditions = atom.conditions
        for n, phi in enumerate(conditions):
            if phi == atom.source:
                continue
            rest = conditions[:n] + conditions[n + 1:]  # still canonical
            if c.impco_pred.get(phi, frozenset()).isdisjoint(rest):
                continue
            reduced = ExplanationAtom(atom.source, atom.target, rest)
            if reduced not in out:
                out.add(reduced)
                frontier.append(reduced)
    return frozenset(out)


def generate(t: Theory, closures: ClosureRelations = None
             ) -> FrozenSet[ExplanationAtom]:
    """Run the full generation pipeline on a validated theory."""
    c = closures if closures is not None else compute_closures(t)
    base = ecinit_base(t, c)
    seeds = seed_ecsets(base | ecinit_double_ontology(t, c, base))
    cyclic = frozenset(a for a, b in c.impco - c.impcos if a != b)
    gathered = gather_transitive(seeds, ecinit_full(t, c, base), cyclic)
    return reduce_conditions(gathered, c)
