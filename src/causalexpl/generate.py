"""Stage 1: derive candidate explanation atoms.

Initial atoms come from the base rules over the closures (ecinit_base),
and the double-ontology relation is read off their witnesses
(ecinit_full).  One rule seeds the fixpoint from that relation
(seed_ecsets), and the transitive condition-gathering fixpoint extends the
seeds over it, keeping only the subset-minimal condition sets of each
(source, target) pair (up to symbols on implication cycles).
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from typing import Dict, FrozenSet, List, Set, Tuple

from .closure import ClosureRelations, compute_closures
from .model import ExplanationAtom, Symbol, Theory


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
        out.add(InitialExplanation(i, x, i))
        out.update(InitialExplanation(i, j, i)
                   for j in c.ontt_supers.get(x, ()))
        for e in c.ontt_subs.get(x, ()):
            if (i, e) in c.impco:
                out.add(InitialExplanation(i, e, i))
                out.update(InitialExplanation(i, j, i)
                           for j in c.ontt_supers.get(e, ()))
            else:
                out.add(InitialExplanation(i, e, e))
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
        for j in c.ontt_supers.get(w.extra, ()))


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
                      cyclic: FrozenSet[Symbol] = frozenset(),
                      ) -> FrozenSet[ExplanationAtom]:
    """Condition-gathering fixpoint, keeping only subset-minimal sets.

    (i,k,S) composed with an initial (k,j,e2), e2 != k, yields (i,j,S+{e2});
    an initial (k,j,k) extends the path without growing the set.  Candidates
    are taken in order of set size, and composing never shrinks a set, so
    when a candidate comes up every smaller set it could be dropped for is
    already kept: it is dropped when a kept set is a subset of it, and a
    kept set is final.  A queued candidate is (i, j, parent set, added
    symbol or None); its set is built only when it comes up.

    Dominance only applies between sets that hold the same members of
    cyclic (symbols on an impco cycle): reduce_conditions can shrink such a
    superset to a set the optimizer keeps.  With no cycle the result is the
    set of subset-minimal atoms of the full saturation.
    """
    inits_from = defaultdict(list)
    for init in inits:
        inits_from[init.source].append((init.target, init.extra))

    # (i, j, members in cyclic) -> the minimal condition sets kept
    kept: Dict[Tuple[Symbol, Symbol, FrozenSet[Symbol]],
               List[FrozenSet[Symbol]]] = defaultdict(list)
    levels = defaultdict(list)  # set size -> queued candidates
    for i, j, conditions in seeds:
        levels[len(conditions)].append((i, j, conditions, None))
    size = 1
    while levels:
        level = levels.pop(size, [])  # grows while it is walked
        for i, k, parent, added in level:
            new = parent if added is None else parent | {added}
            sets = kept[(i, k, new & cyclic)]
            if any(map(new.issuperset, sets)):
                continue
            sets.append(new)
            for j, e2 in inits_from.get(k, ()):
                if e2 == k or e2 in new:
                    level.append((i, j, new, None))
                else:
                    levels[size + 1].append((i, j, new, e2))
        size += 1

    return frozenset(ExplanationAtom(i, j, conds)
                     for (i, j, _), sets in kept.items() for conds in sets)


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
        for phi in atom.conditions:
            if phi == atom.source:
                continue
            rest = atom.conditions - {phi}
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
    full = ecinit_full(c, ecinit_base(t, c))
    cyclic = frozenset(a for a, b in c.impco if a != b and (b, a) in c.impco)
    gathered = gather_transitive(seed_ecsets(full), full, cyclic)
    return reduce_conditions(gathered, c)
