"""Stage 1: derive candidate explanation atoms.

Initial atoms come from the base rules over the closures (ecinit_base),
and the double-ontology relation is read off their witnesses
(ecinit_full).  One rule seeds the fixpoint from that relation
(seed_ecsets), and the transitive condition-gathering fixpoint extends the
seeds over it, keeping only the subset-minimal condition sets of each
(source, target) pair (up to symbols on implication cycles).  The rules
read the closure index's rows, each a symbol's bit (model.Symbol.bit)
mapped to a mask of symbol bits, and gathering and reduction work on
condition masks.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import repeat
from operator import and_
from typing import Dict, FrozenSet, List, Set, Tuple

from .closure import ClosureRelations, _bits, _implied, compute_closures
from .model import ExplanationAtom, Symbol, Theory, members


# source explains target because {source, extra}, without transitivity
InitialExplanation = namedtuple("InitialExplanation", "source target extra")


def ecinit_base(t: Theory, c: ClosureRelations) -> FrozenSet[InitialExplanation]:
    """The non-transitive rules, each (i, j, extra) for a cause(i, x).

    i explains x and every super-concept of x with extra i.  A sub-concept
    e of x that i already implies is explained with extra i, and so is
    every super-concept of e; any other sub-concept e yields the witness
    (i, e, e), from which ecinit_full reads the double-ontology relation.
    Every base atom's extra is its source or its target.
    """
    out: Set[InitialExplanation] = set()
    for ca in t.causal:
        i, x = ca.cause, ca.effect
        implied = c.impco_above[i.bit]  # i is in symbolE, so it has a row
        subs = c.ontt_below.get(x.bit, 0)
        # x, the sub-concepts of x that i implies, and their super-concepts
        explained = x.bit | subs & implied
        explained |= _implied(explained, c.ontt_above)
        out.update(InitialExplanation(i, j, i) for j in members(explained))
        out.update(InitialExplanation(i, e, e)
                   for e in members(subs & ~implied))
    return frozenset(out)


def ecinit_full(c: ClosureRelations, base: FrozenSet[InitialExplanation],
                ) -> FrozenSet[InitialExplanation]:
    """Base atoms plus the double-ontology relation.

    A witness is a base atom (i, e, e) with e != i: e specialises an
    effect of i and i does not imply e (impco is reflexive on causes, so
    e == i never is one).  It explains every super-concept j of e by {i, e}.
    """
    return base | frozenset(
        InitialExplanation(w.source, j, w.extra) for w in base
        if w.extra == w.target != w.source
        for j in members(c.ontt_above.get(w.extra.bit, 0)))


def seed_ecsets(inits: FrozenSet[InitialExplanation]) -> FrozenSet[ExplanationAtom]:
    """Per (source, target): {i} beats {i,j}, which beats the {i,e} witnesses."""
    by_pair = defaultdict(set)
    for init in inits:
        by_pair[(init.source, init.target)].add(init.extra)
    atoms: Set[ExplanationAtom] = set()
    for (i, j), extras in by_pair.items():
        if i in extras:
            atoms.add(ExplanationAtom(i, j, (i,)))
        elif j in extras:
            atoms.add(ExplanationAtom(i, j, (i, j)))
        else:
            for e in extras:
                atoms.add(ExplanationAtom(i, j, (i, e)))
    return frozenset(atoms)


def gather_transitive(seeds: FrozenSet[ExplanationAtom],
                      inits: FrozenSet[InitialExplanation],
                      cyclic: int = 0) -> FrozenSet[ExplanationAtom]:
    """Condition-gathering fixpoint, keeping only subset-minimal sets.

    (i,k,S) composed with an initial (k,j,e2), e2 != k, yields (i,j,S+{e2});
    an initial (k,j,k) extends the path without growing the set.  Candidates
    (i, j, mask) are taken in order of set size, and composing never
    shrinks a set, so when a candidate comes up every smaller set it could
    be dropped for is already kept: it is dropped when a kept set is a
    subset of it, and a kept set is final.

    Dominance only applies between sets that hold the same members of
    cyclic (the mask of the symbols on an impco cycle): reduce_conditions
    can shrink such a superset to a set the optimizer keeps.  With no cycle
    the result is the set of subset-minimal atoms of the full saturation.
    """
    # k -> (j, the bit an initial (k, j, e2) adds, 0 when e2 is k)
    inits_from = defaultdict(list)
    universe = 0    # every bit a set can hold
    for init in inits:
        inits_from[init.source].append(
            (init.target, 0 if init.extra == init.source else init.extra.bit))
        universe |= init.extra.bit

    # (i, j, members in cyclic) -> the minimal condition sets kept
    kept: Dict[Tuple[Symbol, Symbol, int], List[int]] = defaultdict(list)
    levels = defaultdict(list)  # set size -> queued candidates
    for i, j, mask in seeds:
        levels[mask.bit_count()].append((i, j, mask))
        universe |= mask
    size = 1
    while levels:
        level = levels.pop(size, [])  # grows while it is walked
        for i, k, new in level:
            sets = kept[(i, k, new & cyclic)]
            # s <= new when s & (universe ^ new) is 0 (unsigned, unlike ~new)
            if not all(map(and_, sets, repeat(universe ^ new))):
                continue
            sets.append(new)
            for j, added in inits_from.get(k, ()):
                if added & ~new:
                    levels[size + 1].append((i, j, new | added))
                else:
                    level.append((i, j, new))
        size += 1

    return frozenset(ExplanationAtom._make((i, j, mask))
                     for (i, j, _), sets in kept.items() for mask in sets)


def reduce_conditions(atoms: FrozenSet[ExplanationAtom], c: ClosureRelations
                      ) -> FrozenSet[ExplanationAtom]:
    """Close the atom set under single-element removal.

    A member other than the explaining symbol may be dropped when another
    member impco-implies it.  All reduced variants are kept alongside the
    originals; the optimizer decides what survives.
    """
    below = c.impco_below
    # (mask, source bit) -> the masks one removal leaves, whatever the target
    removals: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    out = set(atoms)
    frontier = list(atoms)
    while frontier:
        i, j, mask = frontier.pop()
        rests = removals.get((mask, i.bit))
        if rests is None:
            rests = removals[(mask, i.bit)] = tuple(
                mask ^ phi for phi in _bits(mask & ~i.bit)
                if below.get(phi, 0) & mask & ~phi)
        for rest in rests:
            reduced = ExplanationAtom._make((i, j, rest))
            if reduced not in out:
                out.add(reduced)
                frontier.append(reduced)
    return frozenset(out)


def generate(t: Theory, closures: ClosureRelations = None
             ) -> FrozenSet[ExplanationAtom]:
    """Run the full generation pipeline on a validated theory."""
    c = closures if closures is not None else compute_closures(t)
    full = ecinit_full(c, ecinit_base(t, c))
    # the symbols that imply, and are implied by, another symbol
    cyclic = sum(bit for bit, up in c.impco_above.items()
                 if up & c.impco_below[bit] & ~bit)
    gathered = gather_transitive(seed_ecsets(full), full, cyclic)
    return reduce_conditions(gathered, c)
