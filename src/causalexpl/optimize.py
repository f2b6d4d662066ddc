"""Stage 2: prune generated explanation atoms down to the quasi-optimal ones.

Two prunings, both within a (source, target) group: strict supersets go
first, then sets that element-wise imply a surviving sibling one-way.

Each group is interned once and both prunings run on it: each symbol of
the group is a bit, a condition set is an int mask, and the atoms holding a
symbol form an int bitset, so the siblings that are subsets of a mask are
those outside the holders of every symbol outside it.  The prunings return
bitsets over the group's atoms; bits never reach the output.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List

from .closure import ClosureRelations, Rows
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


def _pairs(atoms: Iterable[ExplanationAtom]
           ) -> Iterable[List[ExplanationAtom]]:
    """The atoms of each (source, target) group."""
    groups = defaultdict(list)
    for atom in atoms:
        groups[(atom.source, atom.target)].append(atom)
    return groups.values()


def prune_supersets(g: _Group) -> int:
    """The bitset of g's atoms whose condition set strictly contains no
    sibling's."""
    return sum(1 << n for n, mask in enumerate(g.masks)
               if g.subsets_of(mask) == 1 << n)


def entailment_subsumption(g: _Group, candidates: int, succ: Rows) -> int:
    """The bitset of the candidates of g that one-directionally imply no
    candidate sibling element-wise; succ holds impco's forward rows.

    A implies B when every member of B - A is impco-implied by some member
    of A - B.  The stronger set is the less likely to be satisfiable, so the
    weaker sibling is the one worth reporting.  Mutual implication keeps
    both.
    """
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

    kept = 0
    for n in _bits(candidates):
        a = g.masks[n]
        # a sibling that a implies lies within a | implied(a)
        siblings = g.subsets_of(a | implied(a)) & candidates & ~(1 << n)
        if not any(implies(a, g.masks[m]) and not implies(g.masks[m], a)
                   for m in _bits(siblings)):
            kept |= 1 << n
    return kept


def optimize(atoms: FrozenSet[ExplanationAtom], c: ClosureRelations
             ) -> FrozenSet[ExplanationAtom]:
    """Both prunings, one interned group per (source, target) with two or
    more atoms; a lone atom has no sibling to prune against and is kept.
    Never invents atoms."""
    kept: List[ExplanationAtom] = []
    for group in _pairs(atoms):
        if len(group) == 1:
            kept += group
            continue
        g = _Group(group)
        kept += (g.atoms[n] for n in _bits(entailment_subsumption(
            g, prune_supersets(g), c.impco_succ)))
    return frozenset(kept)
