"""Stage 3: world enumeration, truth propagation and per-world verification.

A world is one consistent resolution of the disjunctive facts and completion
choices, analogous to one answer set.  Worlds are regrouped under indices so
brave (some world) and cautious (all worlds) verdicts can be computed.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .closure import Rows, compute_closures
from .model import (CausalAtom, Clause, ExplanationAtom, Literal, Symbol,
                    Theory, atom_sort_key)


class WorldOverflowError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__("more than max_worlds = %d worlds survive "
                         "enumeration" % bound)
        self.bound = bound


class InconsistentTheoryError(RuntimeError):
    pass


@dataclass(frozen=True)
class World:
    """One resolution of all choices, with a three-valued truth assignment."""
    index: int
    chosen: FrozenSet[Literal]
    truth: Mapping[Symbol, bool]             # absent symbol = unknown
    causal: FrozenSet[CausalAtom]            # effective causal atoms

    def facts(self) -> Tuple[str, ...]:
        return tuple(sorted(lit.render() for lit in self.chosen))


@dataclass(frozen=True)
class Verdict:
    source: Symbol
    target: Symbol
    conditions: tuple
    verified_in: FrozenSet[int]
    brave: bool
    cautious: bool


def _literal_options(clause: Clause, inclusive: bool) -> List[Tuple[Literal, ...]]:
    literals = clause.sorted_literals()
    if not inclusive:
        return [(lit,) for lit in literals]
    options = []
    for r in range(1, len(literals) + 1):
        options.extend(itertools.combinations(literals, r))
    return options


def _assign_literals(assignment: dict, literals: Iterable[Literal],
                     added: list) -> bool:
    """Assign each literal, listing newly assigned atoms in added; False on
    conflict (the atoms assigned before it stay listed, for undoing)."""
    for lit in literals:
        if lit.atom not in assignment:
            assignment[lit.atom] = lit.positive
            added.append(lit.atom)
        elif assignment[lit.atom] != lit.positive:
            return False
    return True


def propagate_truth(truth: Dict[Symbol, bool], succ: Rows, pred: Rows) -> bool:
    """Forward-close true, backward-close false along impco; False on conflict.

    succ and pred are impco's rows (ClosureRelations.impco_succ and
    impco_pred).  impco is transitive, so a single pass over the assigned
    symbols suffices.
    """
    for s, value in list(truth.items()):
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


def _consistent_choices(facts: Iterable[Literal],
                        axes: List[List[Tuple[Literal, ...]]]):
    """Yield (chosen groups, assignment) for every choice of one option per
    axis that assigns no atom both values, together with the facts.

    The walk is depth-first and visits choices in itertools.product order; a
    branch is dropped as soon as an option clashes with a fact or an earlier
    option.  The assignment maps every chosen atom to its value; it is
    shared between yields, so read it before resuming the walk.
    """
    assignment: dict = {}
    if not _assign_literals(assignment, facts, []):
        return
    n = len(axes)
    added: List[list] = [[] for _ in range(n)]  # atoms each depth assigned
    tried = [0] * n                              # options tried per depth
    depth = 0
    while depth >= 0:
        if depth == n:
            yield [axes[i][tried[i] - 1] for i in range(n)], assignment
            depth -= 1
            continue
        for atom in added[depth]:
            del assignment[atom]
        added[depth].clear()
        if tried[depth] == len(axes[depth]):
            tried[depth] = 0
            depth -= 1
            continue
        option = axes[depth][tried[depth]]
        tried[depth] += 1
        if _assign_literals(assignment, option, added[depth]):
            depth += 1


def enumerate_worlds(t: Theory, max_worlds: int = 1024,
                     inclusive_disjunction: bool = False,
                     closures: Optional[dict] = None) -> Tuple[World, ...]:
    """All consistent worlds, indexed from 1 in canonical choice order.

    closures maps a causal set to the ClosureRelations of t with that causal
    set.  Entries already present are used; every causal set a combination
    has that is missing gets its entry, built once, for the caller to reuse.
    Raises WorldOverflowError as soon as more than max_worlds worlds survive.
    """
    if closures is None:
        closures = {}
    axes: List[List[Tuple[Literal, ...]]] = []
    for clause in sorted(t.disjunctive_facts, key=lambda c: c.render()):
        axes.append(_literal_options(clause, inclusive_disjunction))
    for atom in sorted(t.completions, key=str):
        axes.append([(Literal(atom, True),), (Literal(atom, False),)])

    worlds: List[World] = []
    base_causal = frozenset(t.causal)
    for groups, assignment in _consistent_choices(t.facts, axes):
        truth: Dict[Symbol, bool] = {}
        causal_truth: Dict[CausalAtom, bool] = {}
        for atom, value in assignment.items():
            table = causal_truth if isinstance(atom, CausalAtom) else truth
            table[atom] = value
        causal = frozenset(ca for ca in base_causal.union(causal_truth)
                           if causal_truth.get(ca, True))
        for ca in causal:
            causal_truth.setdefault(ca, True)

        c = closures.get(causal)
        if c is None:
            c = closures[causal] = compute_closures(t.with_causal(causal))
        if not propagate_truth(truth, c.impco_succ, c.impco_pred):
            continue
        if any(_clause_violated(cl, truth, causal_truth) for cl in t.clauses):
            continue
        if len(worlds) == max_worlds:
            raise WorldOverflowError(max_worlds)
        chosen = set(t.facts)
        for group in groups:
            chosen.update(group)
        worlds.append(World(index=len(worlds) + 1, chosen=frozenset(chosen),
                            truth=truth, causal=causal))
    return tuple(worlds)


def verify(atoms: Iterable[ExplanationAtom], world: World
           ) -> FrozenSet[ExplanationAtom]:
    """The atoms whose condition set has no member assigned false in the
    world; the same atom objects, not copies."""
    truth = world.truth
    return frozenset(atom for atom in atoms
                     if not any(truth.get(member) is False
                                for member in atom.conditions))


def brave_cautious(verified_by_world: Mapping[int, Iterable[ExplanationAtom]],
                   n_worlds: int) -> Tuple[Verdict, ...]:
    """Aggregate per-world verification into brave/cautious verdicts."""
    if n_worlds == 0:
        raise InconsistentTheoryError("inconsistent premises: no world survives")
    seen = defaultdict(set)
    for index, atoms in verified_by_world.items():
        for atom in atoms:
            seen[atom].add(index)
    verdicts = []
    for atom in sorted(seen, key=atom_sort_key):
        indices = frozenset(seen[atom])
        verdicts.append(Verdict(source=atom.source, target=atom.target,
                                conditions=atom.conditions,
                                verified_in=indices,
                                brave=bool(indices),
                                cautious=len(indices) == n_worlds))
    return tuple(verdicts)
