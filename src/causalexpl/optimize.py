"""Stage 2: prune generated explanation atoms down to the quasi-optimal ones.

Two prunings, both within a (source, target) group: strict supersets go
first, then sets that element-wise imply a surviving sibling one-way.

Both run on one interned kernel per group: each symbol of the group is a
bit, a condition set is an int mask, and the atoms holding a symbol form an
int bitset, so the siblings that are subsets of a mask are those outside
the holders of every symbol outside it.  Bits never reach the output: the
prunings return a subset of their input atoms.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List

from .closure import PairSet, relation_rows
from .model import ExplanationAtom, Symbol


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Group:
    """One (source, target) group, interned: symbol s is bit bit[s], atoms[n]
    has the mask masks[n], and holding[b] is the bitset of the atoms whose
    set holds the symbol of bit b."""

    def __init__(self, atoms: List[ExplanationAtom]):
        self.atoms = atoms
        self.bit: Dict[Symbol, int] = {}
        self.masks: List[int] = []
        self.holding: List[int] = []
        for n, atom in enumerate(atoms):
            mask = 0
            for s in atom.conditions:
                b = self.bit.setdefault(s, len(self.bit))
                if b == len(self.holding):
                    self.holding.append(0)
                self.holding[b] |= 1 << n
                mask |= 1 << b
            self.masks.append(mask)

    def subsets_of(self, mask: int) -> int:
        """The bitset of the atoms whose condition set is a subset of mask."""
        outside = 0
        for b, holders in enumerate(self.holding):
            if not mask >> b & 1:
                outside |= holders
        return ((1 << len(self.atoms)) - 1) & ~outside


def _groups(atoms: Iterable[ExplanationAtom]) -> Iterator[_Group]:
    groups = defaultdict(list)
    for atom in atoms:
        groups[(atom.source, atom.target)].append(atom)
    return map(_Group, groups.values())


def prune_supersets(atoms: FrozenSet[ExplanationAtom]) -> FrozenSet[ExplanationAtom]:
    """Drop any condition set that strictly contains a sibling's."""
    return frozenset(atom for g in _groups(atoms)
                     for n, atom in enumerate(g.atoms)
                     if g.subsets_of(g.masks[n]) == 1 << n)


def entailment_subsumption(atoms: FrozenSet[ExplanationAtom], impco: PairSet
                           ) -> FrozenSet[ExplanationAtom]:
    """Drop a set that one-directionally implies a sibling element-wise.

    A implies B when every member of B - A is impco-implied by some member
    of A - B.  The stronger set is the less likely to be satisfiable, so the
    weaker sibling is the one worth reporting.  Mutual implication keeps
    both.
    """
    succ, _ = relation_rows(impco)
    kept = set()
    for g in _groups(atoms):
        # up[b]: the mask of the group's symbols that bit b's symbol implies
        up = [sum(1 << g.bit[t] for t in
                  succ.get(s, frozenset()).intersection(g.bit))
              for s in g.bit]

        def implied(mask: int) -> int:
            out = 0
            for b in _bits(mask):
                out |= up[b]
            return out

        def implies(a: int, b: int) -> bool:
            return not b & ~a & ~implied(a & ~b)

        for n, atom in enumerate(g.atoms):
            a = g.masks[n]
            # a sibling that a implies lies within a | implied(a)
            siblings = g.subsets_of(a | implied(a)) & ~(1 << n)
            if not any(implies(a, g.masks[m]) and not implies(g.masks[m], a)
                       for m in _bits(siblings)):
                kept.add(atom)
    return frozenset(kept)


def optimize(atoms: FrozenSet[ExplanationAtom], impco: PairSet
             ) -> FrozenSet[ExplanationAtom]:
    """Composition of the two prunings; never invents atoms."""
    return entailment_subsumption(prune_supersets(atoms), impco)
