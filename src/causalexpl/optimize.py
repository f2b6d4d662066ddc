"""Stage 2: prune generated explanation atoms down to the quasi-optimal ones.

One pass per (source, target) group drops every set that element-wise
implies a sibling one-way.  A strict superset implies its subset one-way,
so no set that strictly contains a sibling's survives either.

Condition sets are masks (model.Symbol.bit), and so are impco's forward
rows (ClosureRelations.impco_above): every test is int arithmetic.
"""
from __future__ import annotations

from collections import defaultdict
from typing import FrozenSet, List

from .closure import ClosureRelations, _bits, _implied
from .model import ExplanationAtom


def optimize(atoms: FrozenSet[ExplanationAtom], c: ClosureRelations
             ) -> FrozenSet[ExplanationAtom]:
    """The atoms that one-directionally imply no sibling of their
    (source, target) group element-wise.  Never invents atoms.

    A implies B when every member of B - A is impco-implied by some member
    of A - B.  The stronger set is the less likely to be satisfiable, so the
    weaker sibling is the one worth reporting.  Mutual implication keeps
    both.
    """
    above = c.impco_above

    def implies(a: int, b: int) -> bool:
        return not b & ~a & ~_implied(a & ~b, above)

    groups = defaultdict(list)
    for atom in atoms:
        groups[atom[:2]].append(atom)
    kept: List[ExplanationAtom] = []
    for group in groups.values():
        # holders[bit]: the bitset of the group's atoms whose set holds bit
        holders = defaultdict(int)
        for n, atom in enumerate(group):
            for bit in _bits(atom.mask):
                holders[bit] |= 1 << n
        everyone = (1 << len(group)) - 1
        for n, atom in enumerate(group):
            a = atom.mask
            # a sibling that a implies lies within a | implied(a), so it
            # holds no bit outside that
            reach = a | _implied(a, above)
            outside = 1 << n
            for bit, held in holders.items():
                if not bit & reach:
                    outside |= held
            siblings = (group[m.bit_length() - 1].mask
                        for m in _bits(everyone ^ outside))
            if not any(implies(a, b) and not implies(b, a) for b in siblings):
                kept.append(atom)
    return frozenset(kept)
