"""Stage 3: world enumeration, truth propagation and per-world verification.

A world is one consistent resolution of the disjunctive facts and completion
choices, analogous to one answer set.  Worlds are regrouped under indices so
brave (some world) and cautious (all worlds) verdicts can be computed.
"""
from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .closure import Rows, compute_closures
from .model import (CausalAtom, Clause, ExplanationAtom, Literal, Symbol,
                    Theory)


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
        "truth",      # symbol -> bool; an absent symbol is unknown
        "causal"))):  # the effective causal atoms
    """One resolution of all choices, with a three-valued truth assignment."""
    __slots__ = ()

    def facts(self) -> Tuple[str, ...]:
        return tuple(sorted(lit.render() for lit in self.chosen))

    def false_mask(self) -> int:
        """The OR of the bits (Symbol.bit) of the symbols assigned false."""
        return sum(s.bit for s, value in self.truth.items() if not value)


def _literal_options(clause: Clause, inclusive: bool) -> List[Tuple[Literal, ...]]:
    literals = clause.sorted_literals()
    if not inclusive:
        return [(lit,) for lit in literals]
    options = []
    for r in range(1, len(literals) + 1):
        options.extend(itertools.combinations(literals, r))
    return options


def _assign_literals(assignment: dict, literals: Iterable[Literal]) -> bool:
    """Assign each literal; False on conflict (the atoms assigned before it
    stay, for the caller to undo)."""
    return all(assignment.setdefault(lit.atom, lit.positive) == lit.positive
               for lit in literals)


def propagate_truth(truth: Dict[Symbol, bool], succ: Rows, pred: Rows,
                    start: int = 0) -> bool:
    """Forward-close true, backward-close false along impco; False on conflict.

    succ and pred are impco's rows (ClosureRelations.impco_succ and
    impco_pred).  impco is transitive, so a single pass over the assigned
    symbols suffices.  The entries before position start (at most
    len(truth)), in insertion order, are taken as already closed and only
    the later ones are read.
    Entries are only inserted, never changed or removed, so a caller undoes
    a call by popping truth back to its size before it.
    """
    # read from the end, so the cost is in the entries read, not in start
    unread = itertools.islice(reversed(truth.items()), len(truth) - start)
    for s, value in reversed(list(unread)):
        targets = succ.get(s, ()) if value else pred.get(s, ())
        for other in targets:
            if truth.setdefault(other, value) != value:
                return False
    return True


def _clause_violated(clause: Clause, truth: Mapping[Symbol, bool],
                     causal_truth: Mapping[CausalAtom, bool]) -> bool:
    """Three-valued check: violated iff every literal is assigned false."""
    for lit in clause.literals:
        table = causal_truth if isinstance(lit.atom, CausalAtom) else truth
        value = table.get(lit.atom)
        if value is None or value == lit.positive:
            return False
    return True


def _consistent_choices(t: Theory, axes: List[List[Tuple[Literal, ...]]],
                        closures: dict):
    """Yield (option indices, assignment, causal set) for every choice of one
    option per axis that, with t's facts and their consequences along impco,
    assigns no atom both values.

    The walk is depth-first and visits choices in itertools.product order; a
    branch is dropped as soon as an option clashes with a fact or an earlier
    assignment.  Depth fixed is 1 + the index of the last axis that holds a
    causal literal (0 if none): from there on no axis can change the causal
    set.  A branch that reaches it without a clash computes its causal set,
    which gets its entry in closures if it has none, and propagates the
    whole assignment along that set's impco; at each deeper depth only the
    entries that depth added are propagated, so a branch dies at its first
    propagated clash.  Each depth undoes its option, and the propagation
    after it, by popping the assignment back to the size it had before.
    The yielded causal set is the closures key for that set, one object per
    set.  The assignment maps every chosen and propagated atom to its value;
    it is shared between yields, so read it before resuming the walk.
    """
    assignment: dict = {}
    if not _assign_literals(assignment, t.facts):
        return
    n = len(axes)
    fixed = max((i + 1 for i, axis in enumerate(axes) for option in axis
                 for lit in option if isinstance(lit.atom, CausalAtom)),
                default=0)
    keys = {causal: causal for causal in closures}
    marks = [0] * n     # assignment size before each depth's option
    tried = [0] * n     # options tried per depth
    depth, arrived = 0, True
    while depth >= 0:
        if arrived:     # every depth before this one holds an option
            arrived = False
            if depth == fixed:
                causal = frozenset(ca for ca in t.causal.union(
                    a for a in assignment if isinstance(a, CausalAtom))
                    if assignment.get(ca, True))
                causal = keys.setdefault(causal, causal)
                c = closures.get(causal)
                if c is None:
                    c = closures[causal] = compute_closures(
                        t.with_causal(causal))
            if depth >= fixed and not propagate_truth(
                    assignment, c.impco_succ, c.impco_pred,
                    marks[depth - 1] if depth > fixed else 0):
                depth -= 1
                continue
            if depth == n:
                yield [tried[i] - 1 for i in range(n)], assignment, causal
                depth -= 1
                continue
            marks[depth] = len(assignment)
        while len(assignment) > marks[depth]:
            assignment.popitem()
        if tried[depth] == len(axes[depth]):
            tried[depth] = 0
            depth -= 1
            continue
        option = axes[depth][tried[depth]]
        tried[depth] += 1
        if _assign_literals(assignment, option):
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
    is itertools.product order over the canonical axes.

    closures maps a causal set to the ClosureRelations of t with that causal
    set.  Entries already present are used; a missing one is built once, for
    the caller to reuse, when a branch first reaches without a clash the
    depth after which no axis can change its causal set.  Worlds on one
    causal set hold its closures key, and worlds with equal truth hold one
    dict.  Raises WorldOverflowError as soon as more than max_worlds worlds
    survive.
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
    walk = sorted(range(len(axes)), key=lambda i: not any(
        isinstance(lit.atom, CausalAtom) for option in axes[i]
        for lit in option))

    survivors = []
    truths: Dict[FrozenSet, Dict[Symbol, bool]] = {}
    for options, assignment, causal in _consistent_choices(
            t, [axes[i] for i in walk], closures):
        truth: Dict[Symbol, bool] = {}
        causal_truth: Dict[CausalAtom, bool] = dict.fromkeys(causal, True)
        for atom, value in assignment.items():
            table = causal_truth if isinstance(atom, CausalAtom) else truth
            table[atom] = value
        if any(_clause_violated(cl, truth, causal_truth) for cl in t.clauses):
            continue
        if len(survivors) == max_worlds:
            raise WorldOverflowError(max_worlds)
        key = [0] * len(axes)
        chosen = set(t.facts)
        for i, option in zip(walk, options):
            key[i] = option
            chosen.update(axes[i][option])
        truth = truths.setdefault(frozenset(truth.items()), truth)
        survivors.append((key, frozenset(chosen), truth, causal))
    survivors.sort(key=lambda s: s[0])
    return tuple(World(index, chosen, truth, causal) for index, (
        _, chosen, truth, causal) in enumerate(survivors, 1))


def verify(atoms: Iterable[ExplanationAtom], world: World
           ) -> FrozenSet[ExplanationAtom]:
    """The atoms whose condition set has no member assigned false in the
    world; the same atom objects, not copies."""
    false = world.false_mask()
    return frozenset(atom for atom in atoms if not atom.mask & false)


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
