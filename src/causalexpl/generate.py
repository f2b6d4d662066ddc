"""Stage 1: derive candidate explanation atoms.

The initial rules (ecinit_full) read the closures once per causal atom and
give two outputs: the seeds of the fixpoint, each (source, target) pair's
condition masks, and the steps it composes over, each symbol's
(target, bit) rules.  The double-ontology relation is part of both, read
off the witnesses of the base rules.  The transitive condition-gathering
fixpoint extends the seeds along the steps, keeping only the subset-minimal
condition sets of each (source, target) pair (up to symbols on implication
cycles).  The rules read the closure index's rows, each a symbol mapped to
a mask of symbol bits (model.Symbol.bit), and gathering and reduction work
on condition masks.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from operator import and_
from typing import Dict, FrozenSet, List, Mapping, Tuple

from .closure import ClosureRelations, _implied, compute_closures
from .model import ExplanationAtom, Symbol, Theory, members

Seeds = Mapping[Tuple[Symbol, Symbol], Tuple[int, ...]]
Steps = Mapping[Symbol, List[Tuple[Symbol, int]]]


def ecinit_full(t: Theory, c: ClosureRelations) -> Tuple[Seeds, Steps]:
    """The initial rules, each "i explains j because {i, e}", as the seeds
    and steps of gather_transitive.

    For a cause(i, x), i explains x and every super-concept of x with
    e = i.  A sub-concept of x that i already implies is explained with
    e = i, and so is every super-concept of it.  Any other sub-concept e
    is a witness: i explains e and every super-concept of e with that e
    (the double-ontology relation).  impco is reflexive on causes, so a
    witness is never i.

    Per (i, j), the seeds are {i} when some rule has e = i, else {i, j}
    when one has e = j, else one {i, e} per rule.  Per k, the steps are
    (j, e's bit, or 0 when e is k) for every rule of k explaining j.
    """
    extras = defaultdict(int)   # (i, j) -> the OR of its rules' e bits
    for ca in t.causal:
        i, x = ca.cause, ca.effect
        implied = c.impco_above[i]  # i is in symbolE, so it has a row
        subs = c.ontt_below.get(x, 0)
        # x, the sub-concepts of x that i implies, and their super-concepts
        explained = x.bit | subs & implied
        for j in members(explained | _implied(explained, c.ontt_above)):
            extras[(i, j)] |= i.bit
        for e in members(subs & ~implied):
            for j in members(e.bit | c.ontt_above.get(e, 0)):
                extras[(i, j)] |= e.bit

    seeds, steps = {}, defaultdict(list)
    for (i, j), mask in extras.items():
        # {i} beats {i, j}, which beats the {i, e} witnesses
        first = mask & i.bit or mask & j.bit or mask
        seeds[(i, j)] = tuple(i.bit | e.bit for e in members(first))
        steps[i].extend((j, 0 if e is i else e.bit) for e in members(mask))
    return seeds, dict(steps)


def gather_transitive(seeds: Seeds, steps: Steps, cyclic: int = 0
                      ) -> FrozenSet[ExplanationAtom]:
    """Condition-gathering fixpoint, keeping only subset-minimal sets.

    (i,k,S) composed with a step (j, bit) of k yields (i,j,S+bit); a step
    (j, 0) extends the path without growing the set.  Candidates
    (i, j, mask) are taken in order of set size, and composing never
    shrinks a set, so when a candidate comes up every smaller set it could
    be dropped for is already kept: it is dropped when a kept set is a
    subset of it, and a kept set is final.

    Dominance only applies between sets that hold the same members of
    cyclic (the mask of the symbols on an impco cycle): reduce_conditions
    can shrink such a superset to a set the optimizer keeps.  With no cycle
    the result is the set of subset-minimal atoms of the full saturation.
    """
    universe = 0    # every bit a set can hold
    for rules in steps.values():
        for _, added in rules:
            universe |= added
    # (i, j, members in cyclic) -> the minimal condition sets kept
    kept: Dict[Tuple[Symbol, Symbol, int], List[int]] = defaultdict(list)
    levels = defaultdict(list)  # set size -> queued candidates
    for (i, j), masks in seeds.items():
        for mask in masks:
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
            for j, added in steps.get(k, ()):
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
    # (mask, source) -> the masks one removal leaves, whatever the target
    removals: Dict[Tuple[int, Symbol], Tuple[int, ...]] = {}
    out = set(atoms)
    frontier = list(atoms)
    while frontier:
        i, j, mask = frontier.pop()
        rests = removals.get((mask, i))
        if rests is None:
            rests = removals[(mask, i)] = tuple(
                mask ^ phi.bit for phi in members(mask & ~i.bit)
                if below.get(phi, 0) & mask & ~phi.bit)
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
    # the symbols that imply, and are implied by, another symbol
    cyclic = sum(s.bit for s, up in c.impco_above.items()
                 if up & c.impco_below[s] & ~s.bit)
    gathered = gather_transitive(*ecinit_full(t, c), cyclic)
    return reduce_conditions(gathered, c)
