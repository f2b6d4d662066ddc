"""Stage 2: prune generated explanation atoms down to the quasi-optimal ones.

One pass per (source, target) group drops every set that element-wise
implies a sibling one-way.  A strict superset implies its subset one-way,
so no set that strictly contains a sibling's survives either.

Condition sets are masks (model.Symbol.bit), and so are impco's forward
rows (ClosureRelations.impco_above), each read by the symbol it describes:
every test is int arithmetic.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Dict, FrozenSet, Iterator, List

from .closure import ClosureRelations, _implied
from .model import ExplanationAtom, members

# a group of more atoms reads the siblings within reach of each atom off
# per-symbol bitsets of positions: testing every sibling is quadratic in the
# group, and chain 5 has groups of 1,024.  Of 32, 64, 128 and 256, 64 timed
# fastest on chains 3 to 5
_SCAN_LIMIT = 64


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
    # a sibling that a implies lies within a | implied(a), so it holds no
    # bit of outside[a]; computed once per distinct mask
    outside: Dict[int, int] = {}
    kept: List[ExplanationAtom] = []
    for group in groups.values():
        masks = [atom.mask for atom in group]
        for a in masks:
            if a not in outside:
                outside[a] = ~(a | _implied(a, above))
        candidates = (_within_reach(masks, outside)
                      if len(masks) > _SCAN_LIMIT else repeat(masks))
        for atom, a, siblings in zip(group, masks, candidates):
            out = outside[a]
            for b in siblings:
                if (not b & out and b != a and implies(a, b)
                        and not implies(b, a)):
                    break
            else:
                kept.append(atom)
    return frozenset(kept)


def _within_reach(masks: List[int], outside: Dict[int, int]
                  ) -> Iterator[List[int]]:
    """For each mask a of masks, the masks that hold no bit of outside[a]."""
    holders = defaultdict(int)  # symbol -> the bitset of positions holding it
    for n, b in enumerate(masks):
        for s in members(b):
            holders[s] |= 1 << n
    union, everyone = sum(s.bit for s in holders), (1 << len(masks)) - 1
    for a in masks:
        survivors = everyone & ~_implied(union & outside[a], holders)
        found = []
        while survivors:
            low = survivors & -survivors
            found.append(masks[low.bit_length() - 1])
            survivors ^= low
        yield found
