"""Stage 3: world enumeration, truth propagation and per-world verification.

A world is one consistent resolution of the choices, analogous to one answer
set: each clause is a choice among its literals (a one-literal clause has
one option) and each completion a choice between true and false; no filter
runs after the walk that makes them.  Worlds are regrouped under indices so
brave (some world) and cautious (all worlds) verdicts can be computed.

Truth is two masks over the process-wide bits of symbols and causal atoms
(Symbol.bit, CausalAtom.bit): the atoms assigned true and those assigned
false, an atom in neither being unknown.  A clash is a bit in both.  A
world's chosen literals are two such masks and its causal set is one.
"""
from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from .closure import Rows, _implied, closures_of
from .model import CausalAtom, ExplanationAtom, Literal, Theory


class WorldOverflowError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__("more than max_worlds = %d worlds survive "
                         "enumeration" % bound)
        self.bound = bound


class InconsistentTheoryError(ValueError):
    pass


class World(namedtuple("World", (
        "index",
        "chosen",     # (positive, negative) literal masks, facts included
        "true",       # mask of the symbols and causal atoms assigned true
        "false",      # and of those assigned false; the rest are unknown
        "causal"))):  # mask of the effective causal atoms, all of them true
    """One resolution of all choices, with a three-valued truth assignment."""
    __slots__ = ()


def _masks(literals: Iterable[Literal]) -> Tuple[int, int]:
    """The masks of the atoms of the positive and of the negative literals."""
    return (sum({lit.atom.bit for lit in literals if lit.positive}),
            sum({lit.atom.bit for lit in literals if not lit.positive}))


def _options(literals: List[Tuple[int, int]], inclusive: bool
             ) -> Iterator[Tuple[int, int]]:
    """An axis's options as _masks pairs, smaller combinations first, made
    as the walk takes them: n inclusive literals have 2^n - 1 options."""
    if not inclusive:
        return iter(literals)
    return ((sum(true for true, _ in option),
             sum(false for _, false in option))
            for r in range(1, len(literals) + 1)
            for option in itertools.combinations(literals, r))


def propagate_truth(true: int, false: int, above: Rows, below: Rows
                    ) -> Tuple[int, int]:
    """The symbols made true by impco from the true bits, and those made
    false by impco from the false bits: the OR of the rows of the members
    given (ClosureRelations.impco_above for true, impco_below for false).

    impco is transitive, so one step closes the bits given; a caller with
    a closed assignment passes only the bits it added since.
    """
    return _implied(true, above), _implied(false, below)


def enumerate_worlds(t: Theory, max_worlds: int = 1024,
                     inclusive_disjunction: bool = False,
                     closures: Optional[dict] = None) -> Tuple[World, ...]:
    """All consistent worlds, indexed from 1 in canonical choice order.

    Every clause but a tautology is a choice axis (Theory.disjunctive_facts)
    whose options are its literals, or their non-empty combinations under
    inclusive_disjunction, so a one-literal clause is one option and holds
    as the unit fact it prints as; a completion is the axis of its two
    literals.  The canonical axes are the clauses, then the completions,
    each sorted by text.  A chosen literal is set true and a branch is
    dropped at its first clash, so no clause is false in a world and none
    is checked after the walk.

    The walk is depth-first in itertools.product order and takes the axes
    that hold a causal literal first, so from depth fixed on no axis can
    change the causal set, whose bits are among every.  A branch that
    reaches it without a clash computes its causal mask, makes those atoms
    true and propagates the whole assignment along that set's impco; each
    deeper depth propagates only the bits it added, if any, so a branch
    dies at its first propagated clash.  The surviving worlds are sorted by
    their option on each canonical axis and numbered in that order.

    closures is the table closure.closures_of fills, for the caller to
    reuse.  Raises WorldOverflowError as soon as more than max_worlds
    worlds survive.
    """
    if closures is None:
        closures = {}
    clauses = sorted(t.disjunctive_facts, key=lambda c: c.render())
    axes = [[_masks([lit]) for lit in clause.sorted_literals()]
            for clause in clauses]
    axes += [[(atom.bit, 0), (0, atom.bit)]
             for atom in sorted(t.completions, key=str)]
    # the bits of the causal atoms in play, and the walk order: axes
    # holding a causal literal first, each part in canonical order
    atoms = t.causal.union(t.completions, (
        lit.atom for lit in t.facts.union(*(c.literals for c in clauses))))
    every = sum(a.bit for a in atoms if isinstance(a, CausalAtom))
    causal_axis = [any((true | false) & every for true, false in literals)
                   for literals in axes]
    walk = sorted(range(len(axes)), key=lambda i: not causal_axis[i])
    fixed = sum(causal_axis)
    # a branch holds t's causal atoms unless assigned false, and any other
    # causal atom when assigned true
    base = sum(ca.bit for ca in t.causal)

    survivors = []
    facts = _masks(t.facts)
    # per frame on the branch: its options not yet taken, the masks it was
    # reached with, which each option is added to, and its pick.  The root
    # frame's one option is the facts; a pick from frames[d] reaches depth
    # d, where the frame of axis walk[d] is pushed
    frames = [[iter([(0, facts)]), 0, 0, None]]
    while frames:
        frame = frames[-1]
        pick = next(frame[0], None)
        if pick is None:
            frames.pop()
            continue
        _, (add_true, add_false) = frame[3] = pick
        true, false = frame[1] | add_true, frame[2] | add_false
        if true & false:
            continue
        depth = len(frames) - 1
        if depth >= fixed:
            if depth == fixed:
                causal = base & ~false | true & every
                c = closures_of(t, closures, causal)
                true |= causal
                was_true = was_false = 0    # propagate the whole masks
            else:
                _, was_true, was_false, _ = frame
            if true != was_true or false != was_false:
                up, down = propagate_truth(true ^ was_true, false ^ was_false,
                                           c.impco_above, c.impco_below)
                true, false = true | up, false | down
                if true & false:
                    continue
        if depth < len(axes):
            frames.append([enumerate(_options(axes[walk[depth]],
                                              inclusive_disjunction)),
                           true, false, None])
            continue
        if len(survivors) == max_worlds:
            raise WorldOverflowError(max_worlds)
        key = [0] * len(axes)
        chosen_true, chosen_false = facts
        for i, (_, _, _, (option, (option_true, option_false))) in zip(
                walk, frames[1:]):
            key[i] = option
            chosen_true |= option_true
            chosen_false |= option_false
        survivors.append((key, (chosen_true, chosen_false), true, false,
                          causal))
    survivors.sort(key=lambda s: s[0])
    return tuple(World(index, *world) for index, (_, *world) in enumerate(
        survivors, 1))


def verify(atoms: Iterable[ExplanationAtom], world: World
           ) -> FrozenSet[ExplanationAtom]:
    """The atoms whose condition set has no member assigned false in the
    world; the same atom objects, not copies."""
    return frozenset(atom for atom in atoms if not atom.mask & world.false)


def brave_cautious(verified_by_world: Mapping[int, Iterable[ExplanationAtom]],
                   n_worlds: int) -> Dict[ExplanationAtom, FrozenSet[int]]:
    """Each atom verified in some world, mapped to the indices of the worlds
    that verify it, in no particular order.  An atom is brave when it is a
    key and cautious when its set holds all n_worlds worlds.  Atoms verified
    in the same worlds share one frozenset.  Raises InconsistentTheoryError
    when no world survives."""
    if n_worlds == 0:
        raise InconsistentTheoryError("inconsistent premises: no world survives")
    # the worlds of each verified set (frozenset returns a frozenset as it
    # is), and each atom's positions among those sets
    worlds_of = defaultdict(list)
    for index, atoms in verified_by_world.items():
        worlds_of[frozenset(atoms)].append(index)
    positions = defaultdict(list)
    for position, atoms in enumerate(worlds_of):
        for atom in atoms:
            positions[atom].append(position)
    indices = list(worlds_of.values())
    verdicts, shared = {}, {}
    for atom, held in positions.items():
        held = tuple(held)
        if held not in shared:
            shared[held] = frozenset(i for p in held for i in indices[p])
        verdicts[atom] = shared[held]
    return verdicts
