"""Stage 2: prune generated explanation atoms down to the quasi-optimal ones.

Two prunings, both within a (source, target) group: strict supersets go
first, then sets that element-wise imply a surviving sibling one-way.
"""
from __future__ import annotations

from collections import defaultdict
from typing import FrozenSet, Iterable

from .closure import PairSet
from .model import ConditionSet, ExplanationAtom


def _grouped(atoms: Iterable[ExplanationAtom]):
    groups = defaultdict(set)
    for atom in atoms:
        groups[(atom.source, atom.target)].add(atom)
    return groups


def prune_supersets(atoms: FrozenSet[ExplanationAtom]) -> FrozenSet[ExplanationAtom]:
    """Drop any condition set that strictly contains a sibling's."""
    kept = set()
    for group in _grouped(atoms).values():
        sets = {atom.conditions: set(atom.conditions) for atom in group}
        for atom in group:
            mine = sets[atom.conditions]
            if any(other < mine for other in sets.values()):
                continue
            kept.add(atom)
    return frozenset(kept)


def _implies_elementwise(a: ConditionSet, b: ConditionSet, impco: PairSet) -> bool:
    """Every element of b - a is impco-implied by some element of a - b."""
    sa, sb = set(a), set(b)
    only_a = sa - sb
    return all(any((e1, e2) in impco for e1 in only_a) for e2 in sb - sa)


def entailment_subsumption(atoms: FrozenSet[ExplanationAtom], impco: PairSet
                           ) -> FrozenSet[ExplanationAtom]:
    """Drop a set that one-directionally implies a sibling element-wise.

    The stronger set is the less likely to be satisfiable, so the weaker
    sibling is the one worth reporting.  Mutual implication keeps both.
    """
    kept = set()
    for group in _grouped(atoms).values():
        conds = [atom.conditions for atom in group]
        for atom in group:
            too_strong = any(
                other != atom.conditions
                and _implies_elementwise(atom.conditions, other, impco)
                and not _implies_elementwise(other, atom.conditions, impco)
                for other in conds)
            if not too_strong:
                kept.add(atom)
    return frozenset(kept)


def optimize(atoms: FrozenSet[ExplanationAtom], impco: PairSet
             ) -> FrozenSet[ExplanationAtom]:
    """Composition of the two prunings; never invents atoms."""
    return entailment_subsumption(prune_supersets(atoms), impco)
