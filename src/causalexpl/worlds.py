"""Stage 3: world enumeration, truth propagation and per-world verification.

A world is one consistent resolution of the disjunctive facts and completion
choices, analogous to one answer set.  Worlds are regrouped under indices so
brave (some world) and cautious (all worlds) verdicts can be computed.

Truth is two masks over the process-wide bits of symbols and causal atoms
(Symbol.bit, CausalAtom.bit): the atoms assigned true and those assigned
false, an atom in neither being unknown.  A clash is a bit in both.
"""
from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .closure import _implied, compute_closures
from .model import CausalAtom, Clause, ExplanationAtom, Literal, Theory


class WorldOverflowError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__("more than max_worlds = %d worlds survive "
                         "enumeration" % bound)
        self.bound = bound


class InconsistentTheoryError(RuntimeError):
    pass


class World(namedtuple("World", (
        "index",
        "chosen",     # the literals chosen, facts included
        "true",       # mask of the symbols and causal atoms assigned true
        "false",      # and of those assigned false; the rest are unknown
        "causal"))):  # the effective causal atoms, all of them true
    """One resolution of all choices, with a three-valued truth assignment."""
    __slots__ = ()


def _literal_options(clause: Clause, inclusive: bool) -> List[Tuple[Literal, ...]]:
    literals = clause.sorted_literals()
    if not inclusive:
        return [(lit,) for lit in literals]
    options = []
    for r in range(1, len(literals) + 1):
        options.extend(itertools.combinations(literals, r))
    return options


def _masks(literals: Iterable[Literal]) -> Tuple[int, int]:
    """The masks of the atoms of the positive and of the negative literals."""
    return (sum({lit.atom.bit for lit in literals if lit.positive}),
            sum({lit.atom.bit for lit in literals if not lit.positive}))


def propagate_truth(true: int, false: int, above: Mapping[int, int],
                    below: Mapping[int, int]) -> Tuple[int, int]:
    """The symbols made true by impco from the true bits, and those made
    false by impco from the false bits: the OR of the rows of the bits
    given (ClosureRelations.impco_above for true, impco_below for false).

    impco is transitive, so one step closes the bits given; a caller with
    a closed assignment passes only the bits it added since.
    """
    return _implied(true, above), _implied(false, below)


def _consistent_choices(t: Theory, axes: List[List[Tuple[Literal, ...]]],
                        fixed: int, closures: dict):
    """Yield (option indices, true, false, causal set) for every choice of
    one option per axis that, with t's facts and their consequences along
    impco, assigns no atom both values.

    The walk is depth-first and visits choices in itertools.product order; a
    branch is dropped as soon as an option clashes with a fact or an earlier
    choice.  The first fixed axes are those that hold a causal literal, so
    from depth fixed on no axis can change the causal set.  A branch that
    reaches it without a clash computes its causal set, which gets its
    entry in closures if it has none, makes its atoms true and propagates
    the whole assignment along that set's impco; at each deeper depth only
    the bits that depth added are propagated, so a branch dies at its first
    propagated clash.  Each depth keeps the masks it was reached with, and
    restores them before its next option.  The yielded causal set is the
    closures key for that set, one object per set.
    """
    true, false = _masks(t.facts)
    if true & false:
        return
    n = len(axes)
    options = [[_masks(option) for option in axis] for axis in axes]
    # a branch holds t's causal atoms unless assigned false, and any other
    # causal atom when assigned true
    base = sum(ca.bit for ca in t.causal)
    literals = t.facts.union(*(option for axis in axes for option in axis))
    causal_atoms = t.causal.union(lit.atom for lit in literals
                                  if isinstance(lit.atom, CausalAtom))
    every = sum(ca.bit for ca in causal_atoms)
    keys = {sum(ca.bit for ca in causal): causal for causal in closures}
    reached = [(0, 0)] * n   # the masks each depth was reached with
    tried = [0] * n          # options tried per depth
    depth, arrived = 0, True
    while depth >= 0:
        if arrived:     # every depth before this one holds an option
            arrived = False
            if depth >= fixed:
                if depth == fixed:
                    mask = base & ~false | true & every
                    causal = keys.get(mask)
                    if causal is None:
                        causal = keys[mask] = frozenset(
                            ca for ca in causal_atoms if ca.bit & mask)
                    c = closures.get(causal)
                    if c is None:
                        c = closures[causal] = compute_closures(
                            t.with_causal(causal))
                    true |= mask
                    before = (0, 0)     # propagate the whole masks
                else:
                    before = reached[depth - 1]
                up, down = propagate_truth(true ^ before[0], false ^ before[1],
                                           c.impco_above, c.impco_below)
                true, false = true | up, false | down
                if true & false:
                    depth -= 1
                    continue
            if depth == n:
                yield [tried[i] - 1 for i in range(n)], true, false, causal
                depth -= 1
                continue
            reached[depth] = (true, false)
        true, false = reached[depth]
        if tried[depth] == len(options[depth]):
            tried[depth] = 0
            depth -= 1
            continue
        option_true, option_false = options[depth][tried[depth]]
        tried[depth] += 1
        if not (true | option_true) & (false | option_false):
            true, false = true | option_true, false | option_false
            depth, arrived = depth + 1, True


def enumerate_worlds(t: Theory, max_worlds: int = 1024,
                     inclusive_disjunction: bool = False,
                     closures: Optional[dict] = None) -> Tuple[World, ...]:
    """All consistent worlds, indexed from 1 in canonical choice order.

    The canonical axes are the disjunctive facts, then the completions, each
    sorted by text.  The walk (_consistent_choices) takes the axes that hold
    a causal literal first, so that it fixes the causal set early and
    propagates truth from there on; the surviving worlds are then sorted by
    their option on each canonical axis and numbered in that order, which
    is itertools.product order over the canonical axes.  A world is dropped
    when a clause has every positive atom false and every negative atom
    true.

    closures maps a causal set to the ClosureRelations of t with that causal
    set.  Entries already present are used; a missing one is built once, for
    the caller to reuse, when a branch first reaches without a clash the
    depth after which no axis can change its causal set.  Worlds on one
    causal set hold its closures key.  Raises WorldOverflowError as soon as
    more than max_worlds worlds survive.
    """
    if closures is None:
        closures = {}
    axes: List[List[Tuple[Literal, ...]]] = []
    for clause in sorted(t.disjunctive_facts, key=lambda c: c.render()):
        axes.append(_literal_options(clause, inclusive_disjunction))
    for atom in sorted(t.completions, key=str):
        axes.append([(Literal(atom, True),), (Literal(atom, False),)])
    # the walk order: axes holding a causal literal first, each part in
    # canonical order
    causal_axis = [any(isinstance(lit.atom, CausalAtom) for option in axis
                       for lit in option) for axis in axes]
    walk = sorted(range(len(axes)), key=lambda i: not causal_axis[i])
    clauses = [_masks(clause.literals) for clause in t.clauses]

    survivors = []
    for options, true, false, causal in _consistent_choices(
            t, [axes[i] for i in walk], sum(causal_axis), closures):
        if any(positive & false == positive and negative & true == negative
               for positive, negative in clauses):
            continue
        if len(survivors) == max_worlds:
            raise WorldOverflowError(max_worlds)
        key = [0] * len(axes)
        chosen = set(t.facts)
        for i, option in zip(walk, options):
            key[i] = option
            chosen.update(axes[i][option])
        survivors.append((key, frozenset(chosen), true, false, causal))
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
