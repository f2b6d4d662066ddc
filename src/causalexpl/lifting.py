"""Predicate lifting: object-level IS-A links to atom-level ontological atoms.

Per-predicate parameter kinds drive the expansion:

onekind     -- unary, essentially existential: heard(bell) means "heard some
               bell", so heard(loud_bell) IS-A heard(bell)
allkind     -- unary, essentially universal: like(car) means "like all cars",
               so like(car) IS-A like(white_car)
all_onekind -- binary, first argument universal, second existential
propkind    -- plain propositional objects
"""
from __future__ import annotations

from collections import namedtuple
from typing import FrozenSet, Iterable, Set

# KindDeclarations is a Theory field, so model defines it
from .model import KindDeclarations, OntAtom, Symbol, checked_make


class ObjectOntAtom(namedtuple("ObjectOntAtom", "sub super")):
    """An IS-A link between objects (classes or individuals), not atoms."""
    __slots__ = ()
    _make = checked_make

    def __new__(cls, sub: str, super: str):
        if sub == super:
            raise ValueError("reflexive ont_object atom")
        return tuple.__new__(cls, (sub, super))

    def __str__(self) -> str:
        return "ont_object(%s,%s)" % (self.sub, self.super)


def lift(obj_ont: Iterable[ObjectOntAtom], kinds: KindDeclarations
         ) -> FrozenSet[OntAtom]:
    """Expand object links into atom-level OntAtoms over structured symbols.

    The binary rule factors each instance through the intermediate atom with
    the universal argument specialised first, so one object pair per position
    yields exactly three atoms.
    """
    pairs = sorted(set(obj_ont), key=lambda oa: (oa.sub, oa.super))
    atoms: Set[OntAtom] = set()
    for oa in pairs:
        x, y = oa.sub, oa.super
        for p in sorted(kinds.onekind):
            atoms.add(OntAtom(Symbol(p, (x,)), Symbol(p, (y,))))
        for p in sorted(kinds.allkind):
            atoms.add(OntAtom(Symbol(p, (y,)), Symbol(p, (x,))))
        if x in kinds.propkind and y in kinds.propkind:
            atoms.add(OntAtom(Symbol(x, ()), Symbol(y, ())))

    for p in sorted(kinds.all_onekind):
        for first in pairs:       # universal position: x1 IS-A x
            for second in pairs:  # existential position: y IS-A y1
                x1, x = first.sub, first.super
                y, y1 = second.sub, second.super
                atoms.add(OntAtom(Symbol(p, (x, y)), Symbol(p, (x1, y1))))
                atoms.add(OntAtom(Symbol(p, (x1, y)), Symbol(p, (x1, y1))))
                atoms.add(OntAtom(Symbol(p, (x, y)), Symbol(p, (x1, y))))
    return frozenset(atoms)


# apply_restrictions' result: the atoms kept, and its warnings
LiftReport = namedtuple("LiftReport", "atoms warnings")


def apply_restrictions(lifted: Iterable[OntAtom], kinds: KindDeclarations
                       ) -> LiftReport:
    """Keep only restricted-predicate atoms whose source arguments are admissible."""
    admissible = {}
    for p, x, y in kinds.kind_par:
        admissible.setdefault(p, set()).add((x, y))
    kept = set()
    warnings = []
    for p in sorted(kinds.restricted):
        if not admissible.get(p):
            warnings.append("restricted predicate %r has no kindPar entries; "
                            "all its atoms are dropped" % p)
    for atom in lifted:
        p = atom.sub.name
        if p in kinds.restricted:
            args = atom.sub.args or ()
            if len(args) != 2 or tuple(args) not in admissible.get(p, set()):
                continue
        kept.add(atom)
    return LiftReport(atoms=frozenset(kept), warnings=warnings)
