"""Core data model: symbols, premise atoms, clauses and explanation atoms.

All values are immutable; a validated theory can be shared freely between
pipeline runs.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Tuple, Union)

if TYPE_CHECKING:
    from .lifting import KindDeclarations, ObjectOntAtom


@functools.total_ordering
@dataclass(frozen=True)
class Symbol:
    """A propositional symbol, flat ("alpha") or structured ("[own,tom,book]").

    ``args is None`` marks a flat symbol; a tuple (possibly empty) marks a
    structured one.  Both live in a single namespace and are ordered by
    their rendered text form.

    The text and the hash are read on every sort, print and set or dict
    lookup, so they are computed once, here; they are not fields, and ``==``
    and ``repr`` see only name and args.
    """
    name: str
    args: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("symbol name must be non-empty")
        text = (self.name if self.args is None
                else "[" + ",".join((self.name,) + self.args) + "]")
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "_hash", hash((self.name, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and unpickled values recompute the hash, which depends on
        # the process's hash seed
        return (Symbol, (self.name, self.args))

    @property
    def structured(self) -> bool:
        return self.args is not None

    def render(self) -> str:
        return self._text

    __str__ = render

    def __lt__(self, other: "Symbol") -> bool:
        return self._text < other._text


def sym(name: str, *args: str) -> Symbol:
    """Shorthand constructor: sym("a") is flat, sym("own", "tom", "book") is not."""
    return Symbol(name, tuple(args) if args else None)


@dataclass(frozen=True)
class CausalAtom:
    cause: Symbol
    effect: Symbol

    def __str__(self) -> str:
        return "cause(%s,%s)" % (self.cause, self.effect)


@dataclass(frozen=True)
class OntAtom:
    """An IS-A link: sub is a super."""
    sub: Symbol
    super: Symbol

    def __str__(self) -> str:
        return "ont(%s,%s)" % (self.sub, self.super)


@dataclass(frozen=True)
class Literal:
    """A truth literal over a symbol or a causal atom, with polarity."""
    atom: Union[Symbol, CausalAtom]
    positive: bool = True

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def render(self) -> str:
        sign = "" if self.positive else "-"
        if isinstance(self.atom, CausalAtom):
            return "%s%s" % (sign, self.atom)
        return "%strue(%s)" % (sign, self.atom)

    def __str__(self) -> str:
        return self.render()


def _literal_key(lit: Literal) -> tuple:
    return (lit.render(),)


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals (one CNF clause).

    Duplicate literals are collapsed by construction; tautologies are the
    parser's problem (dropped there with a warning).
    """
    literals: frozenset = frozenset()

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause")

    def sorted_literals(self) -> Tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=_literal_key))

    def is_tautology(self) -> bool:
        return any(lit.negated() in self.literals for lit in self.literals)

    def render(self) -> str:
        return " v ".join(lit.render() for lit in self.sorted_literals())

    def __str__(self) -> str:
        return self.render()


# Condition sets are canonically ordered duplicate-free symbol tuples.
ConditionSet = Tuple[Symbol, ...]


class EmptyConditionSetError(ValueError):
    pass


def canonicalize(symbols: Iterable[Symbol]) -> ConditionSet:
    """Sort and deduplicate; idempotent and order-insensitive."""
    return tuple(sorted(set(symbols)))


def canonical_conditions(symbols: Iterable[Symbol]) -> ConditionSet:
    """Like canonicalize but rejects the empty set (explanation atoms need one)."""
    out = canonicalize(symbols)
    if not out:
        raise EmptyConditionSetError("explanation atom needs a non-empty condition set")
    return out


@dataclass(frozen=True)
class ExplanationAtom:
    """source explains target because the condition set is jointly possible.

    An atom's stage (generated, optimal, verified in a world) is the
    collection that holds it, not a field of the atom.  Its hash is computed
    once, like a Symbol's, and is not a field.
    """
    source: Symbol
    target: Symbol
    conditions: ConditionSet

    def __post_init__(self):
        if self.source not in self.conditions:
            raise ValueError("explaining symbol must belong to its condition set")
        object.__setattr__(self, "_hash", hash(self.key()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (ExplanationAtom, self.key())

    def key(self) -> tuple:
        return (self.source, self.target, self.conditions)

    def render(self) -> str:
        return "ecSet(%s)" % atom_body(self)

    def __str__(self) -> str:
        return self.render()


def atom_body(atom: ExplanationAtom) -> str:
    """The arguments of an atom's fact-file statement: ``i,j,{a,b}``."""
    return "%s,%s,{%s}" % (atom.source, atom.target,
                           ",".join(map(str, atom.conditions)))


def atom_sort_key(atom: ExplanationAtom) -> tuple:
    """The order every stage's atoms are emitted in: by rendered text."""
    return (str(atom.source), str(atom.target), tuple(map(str, atom.conditions)))


def ranked_atoms(groups: Mapping[Hashable, Iterable[ExplanationAtom]]
                 ) -> Tuple[List[ExplanationAtom], Dict[Hashable, List[int]]]:
    """(order, ranks): the distinct atoms of all groups sorted once by
    atom_sort_key, and each group's atoms as ascending positions in that
    order, so group k in emission order is [order[r] for r in ranks[k]]."""
    order = sorted(set().union(*groups.values()), key=atom_sort_key)
    rank = {atom: r for r, atom in enumerate(order)}
    return order, {i: sorted(map(rank.__getitem__, atoms))
                   for i, atoms in groups.items()}


@dataclass(frozen=True)
class Theory:
    """The user-supplied premises: C (causal), O (ontology) and W (clauses)."""
    causal: frozenset = frozenset()           # of CausalAtom
    ontology: frozenset = frozenset()         # of OntAtom
    facts: frozenset = frozenset()            # of Literal (unit facts)
    clauses: frozenset = frozenset()          # of Clause
    declared: frozenset = frozenset()         # of Symbol (explicit symbol/1)
    completions: frozenset = frozenset()      # of Symbol | CausalAtom to complete
    object_ontology: frozenset = frozenset()  # of ObjectOntAtom (lifting input)
    kind_decls: Optional["KindDeclarations"] = None

    @property
    def disjunctive_facts(self) -> frozenset:
        """Clauses with two or more literals, usable as world generators."""
        return frozenset(c for c in self.clauses if len(c.literals) >= 2)

    def with_causal(self, causal: Iterable[CausalAtom]) -> "Theory":
        """Copy with a different causal atom set (per-world reinterpretation)."""
        from dataclasses import replace
        return replace(self, causal=frozenset(causal))

    def with_ontology(self, ontology: Iterable[OntAtom]) -> "Theory":
        from dataclasses import replace
        return replace(self, ontology=frozenset(ontology))


def symbol_universe(t: Theory) -> Tuple[frozenset, frozenset]:
    """Return (symbol, symbolE).

    symbolE holds every symbol occurring in a causal or ontological atom;
    symbol additionally covers declared symbols and fact/clause symbols.
    """
    symbol_e = set()
    for ca in t.causal:
        symbol_e.add(ca.cause)
        symbol_e.add(ca.effect)
    for oa in t.ontology:
        symbol_e.add(oa.sub)
        symbol_e.add(oa.super)
    symbols = set(symbol_e)
    symbols.update(t.declared)
    for lit in t.facts:
        symbols.update(_literal_symbols(lit))
    for clause in t.clauses:
        for lit in clause.literals:
            symbols.update(_literal_symbols(lit))
    for atom in t.completions:
        if isinstance(atom, CausalAtom):
            symbols.update((atom.cause, atom.effect))
        else:
            symbols.add(atom)
    return frozenset(symbols), frozenset(symbol_e)


def _literal_symbols(lit: Literal):
    if isinstance(lit.atom, CausalAtom):
        return (lit.atom.cause, lit.atom.effect)
    return (lit.atom,)


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_theory(t: Theory, lifting: bool = False) -> ValidationReport:
    """Well-formedness checks; findings are reported, nothing is raised."""
    report = ValidationReport()
    for oa in t.ontology:
        if oa.sub == oa.super:
            report.errors.append("reflexive ontology atom: %s" % oa)
    for ca in t.causal:
        if ca.cause == ca.effect:
            report.warnings.append("self-cause: %s" % ca)
    for clause in t.clauses:
        if clause.is_tautology():
            report.warnings.append("tautology dropped: %s" % clause)
    for lit in t.facts:
        if lit.negated() in t.facts:
            report.errors.append("contradictory unit facts on %s" % lit.atom)
            break
    from .closure import ont_closure  # closure imports this module
    if any(sub == sup for sub, sup in ont_closure(t.ontology)):
        report.warnings.append("ontology contains a cycle (cyclic IS-A is "
                               "almost certainly a modeling error)")
    symbols, _ = symbol_universe(t)
    flat_names = {s.name for s in symbols if not s.structured}
    pred_names = {s.name for s in symbols if s.structured}
    if t.kind_decls is not None:
        pred_names |= t.kind_decls.declared_predicates()
    for name in sorted(flat_names & pred_names):
        report.warnings.append(
            "name %r used both as a propositional constant and a predicate" % name)
    if lifting:
        known = t.kind_decls.declared_predicates() if t.kind_decls else set()
        for s in sorted(symbols):
            if s.structured and s.name not in known:
                report.errors.append(
                    "structured symbol %s uses predicate %r with no kind "
                    "declaration" % (s, s.name))
    return report

