"""Brute-force reference derivation, independent of the staged pipeline.

Saturates the three formal rules directly: the initial case (with explicit
IS-A reflexivity), transitivity with condition gathering, and the weakened
element-removal simplification that never drops the explaining symbol.
Intended for small instances and pipeline validation only.

The oracle reasons in pairs of symbols.  Of the pipeline it reads only the
closure index (closure.compute_closures), whose rows row_pairs decodes.
"""
from __future__ import annotations

from collections import defaultdict
from typing import FrozenSet, Set, Tuple

from .closure import Rows, compute_closures
from .model import ExplanationAtom, Symbol, Theory, members, symbol_universe

PairSet = FrozenSet[Tuple[Symbol, Symbol]]


class OracleBoundError(ValueError):
    """Instance too large for exhaustive saturation."""


def row_pairs(rows: Rows) -> PairSet:
    """The pairs (a, b) of a closure index's above rows (ontt_above or
    impco_above): b is in the row of a."""
    return frozenset((a, b) for a, row in rows.items() for b in members(row))


def derive_all(t: Theory, max_symbols: int = 10) -> FrozenSet[ExplanationAtom]:
    """Exhaustively derive explanation atoms; no pruning, no consistency checks."""
    _, symbol_e = symbol_universe(t)
    if len(symbol_e) > max_symbols:
        raise OracleBoundError(
            "oracle refuses %d symbols (bound %d)" % (len(symbol_e), max_symbols))

    closures = compute_closures(t)
    ontt = set(row_pairs(closures.ontt_above))
    ontt.update((s, s) for s in symbol_e)  # explicit reflexivity
    supers = defaultdict(set)  # every symbol of symbolE has a row
    for d, g in ontt:
        supers[d].add(g)
    impco = row_pairs(closures.impco_above)

    Key = Tuple[Symbol, Symbol, FrozenSet[Symbol]]
    derived: Set[Key] = set()
    # Initial case: cause(a, b), d IS-A b, d IS-A g  =>  (a, g, {a, d}).
    for ca in t.causal:
        a, b = ca.cause, ca.effect
        for d in symbol_e:
            if b not in supers[d]:
                continue
            for g in supers[d]:
                derived.add((a, g, frozenset((a, d))))

    frontier = set(derived)
    by_source = defaultdict(set)
    by_target = defaultdict(set)
    for atom in derived:
        by_source[atom[0]].add(atom)
        by_target[atom[1]].add(atom)

    while frontier:
        new: Set[Key] = set()

        def emit(atom: Key):
            if atom not in derived and atom not in new:
                new.add(atom)

        for a, b, phi in frontier:
            # Transitivity, composing on both sides of the frontier atom.
            for b2, g, psi in by_source[b]:
                emit((a, g, phi | psi))
            for a0, a1, psi in by_target[a]:
                emit((a0, b, psi | phi))
            # Element removal: drop phi_el when a sibling element implies it.
            for phi_el in phi:
                if phi_el == a:
                    continue
                rest = phi - {phi_el}
                if any((other, phi_el) in impco for other in rest):
                    emit((a, b, rest))

        derived.update(new)
        for atom in new:
            by_source[atom[0]].add(atom)
            by_target[atom[1]].add(atom)
        frontier = new

    return frozenset(ExplanationAtom(a, b, phi)
                     for a, b, phi in derived)


def optimal_subset(atoms: FrozenSet[ExplanationAtom], impco: PairSet
                   ) -> FrozenSet[ExplanationAtom]:
    """Subset-minimise per (source, target), then drop one-way stronger sets.

    Deliberately restated here rather than shared with the optimizer so the
    two sides of the equivalence check stay independent.
    """
    groups = defaultdict(list)
    for atom in atoms:
        groups[(atom.source, atom.target)].append(atom)

    kept = set()
    for group in groups.values():
        sets = [atom.conditions for atom in group]
        minimal = [atom for atom, mine in zip(group, sets)
                   if not any(other < mine for other in sets)]

        def one_way_stronger(phi: set, psi: set) -> bool:
            # phi element-wise implies psi, and psi does not imply phi back
            def implies(src: set, dst: set) -> bool:
                return all(any((e1, e2) in impco for e1 in src - dst)
                           for e2 in dst - src)
            return implies(phi, psi) and not implies(psi, phi)

        min_sets = [atom.conditions for atom in minimal]
        for atom, mine in zip(minimal, min_sets):
            if not any(other != mine and one_way_stronger(mine, other)
                       for other in min_sets):
                kept.add(atom)
    return frozenset(kept)
