"""Core data model: symbols, premise atoms, clauses and explanation atoms.

All values are immutable; a validated theory can be shared freely between
pipeline runs.  Symbols, causal and ontological atoms and literals are
interned, one object per value, and every other value is a tuple, so
hashing and comparing them runs in C.  Each symbol and causal atom gets one
bit of a process-wide numbering when it is interned, and one table holds
the object of each number.  A condition set is the int mask of its members'
bits from generation to verification, and a world is masks only: its chosen
literals, its truth assignment and its causal set.  A mask is decoded by
``members`` alone, at the public boundary and where text is written.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from typing import (Dict, FrozenSet, Hashable, Iterable, List, Mapping,
                    Optional, Set, Tuple, Union)


# the symbol or causal atom of each process-wide number
_numbered: List = []


class _Interned:
    """One object per value: a class's constructor returns the object its
    table holds for the arguments, and makes it on first use.  ``==`` and
    ``hash`` are then object identity, which runs in C.  Values are
    read-only; a copy or an unpickled value is the table's object again.
    A table keeps every value made for the life of the process."""
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    @classmethod
    def _intern(cls, *values):
        """A new object with its slots set to values, in order, held in the
        table under the values of its fields."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(obj, name, value)
        cls._table[values[:len(cls._fields)]] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("%s is read-only" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is read-only" % type(self).__name__)

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


@functools.total_ordering
class Symbol(_Interned):
    """A propositional symbol, flat ("alpha") or structured ("[own,tom,book]").

    ``args is None`` marks a flat symbol; a tuple (possibly empty) marks a
    structured one.  Both live in a single namespace and are ordered by
    their rendered text form, which is computed once, here.  Text alone is
    not identity: Symbol("[at,x]") is flat and not sym("at", "x").

    ``bit`` is ``1 << n`` for the symbol's number n, given in the order the
    process interns symbols and causal atoms, so it differs between
    processes; a pickle holds the name and arguments, not the number.
    """
    __slots__ = ("name", "args", "_text", "bit")
    _fields = ("name", "args")
    _table: dict = {}

    def __new__(cls, name: str, args: Optional[Tuple[str, ...]] = None):
        s = cls._table.get((name, args))
        if s is not None:
            return s
        if not name:
            raise ValueError("symbol name must be non-empty")
        text = (name if args is None
                else "[" + ",".join((name,) + args) + "]")
        s = cls._intern(name, args, text, 1 << len(_numbered))
        _numbered.append(s)
        return s

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


class CausalAtom(_Interned):
    """cause(cause, effect); its ``bit`` is numbered with the symbols'."""
    __slots__ = ("cause", "effect", "bit")
    _fields = ("cause", "effect")
    _table: dict = {}

    def __new__(cls, cause: Symbol, effect: Symbol):
        ca = cls._table.get((cause, effect))
        if ca is None:
            ca = cls._intern(cause, effect, 1 << len(_numbered))
            _numbered.append(ca)
        return ca

    def __str__(self) -> str:
        return "cause(%s,%s)" % (self.cause, self.effect)


class OntAtom(_Interned):
    """An IS-A link: sub is a super."""
    __slots__ = _fields = ("sub", "super")
    _table: dict = {}

    def __new__(cls, sub: Symbol, super: Symbol):
        return (cls._table.get((sub, super))
                or cls._intern(sub, super))

    def __str__(self) -> str:
        return "ont(%s,%s)" % (self.sub, self.super)


class Literal(_Interned):
    """A truth literal over a symbol or a causal atom, with polarity; its
    text is computed once, like a symbol's."""
    __slots__ = ("atom", "positive", "_text")
    _fields = ("atom", "positive")
    _table: dict = {}

    def __new__(cls, atom: Union[Symbol, CausalAtom], positive: bool = True):
        lit = cls._table.get((atom, positive))
        if lit is not None:
            return lit
        text = (str(atom) if isinstance(atom, CausalAtom)
                else "true(%s)" % atom)
        return cls._intern(atom, positive, ("" if positive else "-") + text)

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def render(self) -> str:
        return self._text

    __str__ = render


@classmethod
def checked_make(cls, iterable):
    """A namedtuple's ``_make`` (which ``_replace`` calls) through the
    class's own checking ``__new__``, for records with an invariant."""
    return cls(*iterable)


class Clause(namedtuple("Clause", "literals")):
    """A disjunction of literals (one CNF clause).

    Duplicate literals are collapsed by construction; a tautology is
    dropped with a warning by the parser, and by
    ``Theory.disjunctive_facts``, ``symbol_universe`` and ``emit_theory`` in
    a theory built in code.
    """
    __slots__ = ()
    _make = checked_make

    def __new__(cls, literals: frozenset):
        if not literals:
            raise ValueError("empty clause")
        return tuple.__new__(cls, (literals,))

    def sorted_literals(self) -> Tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=str))

    def is_tautology(self) -> bool:
        return any(lit.negated() in self.literals for lit in self.literals)

    def render(self) -> str:
        return " v ".join(lit.render() for lit in self.sorted_literals())

    def __str__(self) -> str:
        return self.render()


def members(mask: int) -> List:
    """The symbols and causal atoms at mask's bits: the one decoder of a
    mask."""
    out = []
    while mask:
        n = mask.bit_length() - 1
        out.append(_numbered[n])
        mask ^= 1 << n
    return out


class ExplanationAtom(namedtuple("ExplanationAtom", "source target mask")):
    """source explains target because the condition set is jointly possible.

    A tuple (source, target, mask), so its hash and ``==`` run in C: mask
    is the OR of the conditions' ``Symbol.bit``, whatever iterable of
    symbols built the atom.  ``conditions`` decodes it to a frozenset.  An
    atom's stage (generated, optimal, verified in a world) is the
    collection that holds it, not a field of the atom.
    """
    __slots__ = ()

    def __new__(cls, source: Symbol, target: Symbol,
                conditions: Iterable[Symbol]):
        return cls._make((source, target,
                          sum(s.bit for s in frozenset(conditions))))

    @classmethod
    def _make(cls, fields: Iterable) -> "ExplanationAtom":
        """The atom of (source, target, mask); ``_replace`` calls this."""
        source, target, mask = fields
        if not mask & source.bit:
            raise ValueError("explaining symbol must belong to its condition set")
        return tuple.__new__(cls, (source, target, mask))

    def __reduce__(self):
        # symbol numbers are per process, so a pickle holds the symbols
        return type(self), (self.source, self.target, self.conditions)

    @property
    def conditions(self) -> FrozenSet[Symbol]:
        return frozenset(members(self.mask))

    def render(self) -> str:
        return "ecSet(%s)" % atom_body(atom_sort_key(self))

    __str__ = render


def condition_texts(mask: int) -> Tuple[str, ...]:
    """The texts of a condition mask's members, in the order they are
    written (a condition mask holds symbols only)."""
    return tuple(sorted([s._text for s in members(mask)]))


def atom_body(key: tuple) -> str:
    """The arguments ``i,j,{a,b}`` of the fact-file statement of the atom
    whose atom_sort_key is key."""
    source, target, conditions = key
    return "%s,%s,{%s}" % (source, target, ",".join(conditions))


def atom_sort_key(atom: ExplanationAtom,
                  texts: Optional[Mapping[int, Tuple[str, ...]]] = None
                  ) -> tuple:
    """The order every stage's atoms are emitted in: by rendered text.
    texts, when given, holds the condition_texts of the atom's mask."""
    return (atom.source._text, atom.target._text,
            condition_texts(atom.mask) if texts is None else texts[atom.mask])


def ranked_atoms(groups: Mapping[Hashable, Iterable[ExplanationAtom]]
                 ) -> Tuple[List[ExplanationAtom], List[tuple], Dict]:
    """(order, keys, ranks): the distinct atoms of all groups sorted once
    by atom_sort_key, their keys in that order, for the writers to reuse,
    and each group's atoms as ascending positions in that order, so group k
    in emission order is [order[r] for r in ranks[k]].  Each distinct mask
    is decoded once, and groups of equal atoms share one list of ranks."""
    atoms = set().union(*groups.values())
    texts = {mask: condition_texts(mask) for mask in {a.mask for a in atoms}}
    keys = {atom: atom_sort_key(atom, texts) for atom in atoms}
    order = sorted(keys, key=keys.__getitem__)
    rank = {atom: r for r, atom in enumerate(order)}
    ranks, shared = {}, {}
    for i, group in groups.items():
        group = frozenset(group)  # a frozenset is returned as it is
        if group not in shared:
            shared[group] = sorted(map(rank.__getitem__, group))
        ranks[i] = shared[group]
    return order, list(map(keys.__getitem__, order)), ranks


class KindDeclarations(namedtuple(
        "KindDeclarations", "onekind allkind all_onekind propkind restricted "
        "kind_par", defaults=(frozenset(),) * 6)):
    """Sets of predicate names per kind; kind_par holds (p, x, y) triples."""
    __slots__ = ()
    _make = checked_make

    def __new__(cls, *args, **kwargs):
        decls = super().__new__(cls, *args, **kwargs)
        decls.__post_init__()
        return decls

    def __post_init__(self):
        """Raises ValueError when a predicate has two kinds."""
        kinds = [("onekind", self.onekind), ("allkind", self.allkind),
                 ("all_onekind", self.all_onekind), ("propkind", self.propkind)]
        for i, (name_a, set_a) in enumerate(kinds):
            for name_b, set_b in kinds[i + 1:]:
                clash = set_a & set_b
                if clash:
                    raise ValueError("predicate(s) %s declared both %s and %s"
                                     % (sorted(clash), name_a, name_b))

    def declared_predicates(self) -> Set[str]:
        return set(self.onekind) | set(self.allkind) | set(self.all_onekind) \
            | set(self.propkind)


class Theory(namedtuple("Theory", (
        "causal",            # of CausalAtom
        "ontology",          # of OntAtom
        "facts",             # of Literal (unit facts)
        "clauses",           # of Clause
        "declared",          # of Symbol (explicit symbol/1)
        "completions",       # of Symbol | CausalAtom to complete
        "object_ontology",   # of ObjectOntAtom (lifting input)
        "kind_decls"),       # KindDeclarations (lifting input)
        defaults=(frozenset(),) * 7 + (KindDeclarations(),))):
    """The user-supplied premises: C (causal), O (ontology) and W (clauses)."""
    __slots__ = ()

    @property
    def disjunctive_facts(self) -> frozenset:
        """Every clause but a tautology, each a choice axis of the worlds: a
        one-literal clause is an axis with one option, so it holds as the
        unit fact it prints as.  A tautology is dropped, as validate_theory
        warns and the parser does."""
        return frozenset(c for c in self.clauses if not c.is_tautology())

    def with_causal(self, causal: Iterable[CausalAtom]) -> "Theory":
        """Copy with a different causal atom set (per-world reinterpretation)."""
        return self._replace(causal=frozenset(causal))


def symbol_universe(t: Theory) -> Tuple[frozenset, frozenset]:
    """Return (symbol, symbolE).

    symbolE holds every symbol occurring in a causal or ontological atom;
    symbol additionally covers declared symbols and fact/clause symbols;
    a tautological clause contributes none.
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
        symbols.update(_symbols_of(lit.atom))
    for clause in t.disjunctive_facts:
        for lit in clause.literals:
            symbols.update(_symbols_of(lit.atom))
    for atom in t.completions:
        symbols.update(_symbols_of(atom))
    return frozenset(symbols), frozenset(symbol_e)


def _symbols_of(atom: Union[Symbol, CausalAtom]):
    if isinstance(atom, CausalAtom):
        return (atom.cause, atom.effect)
    return (atom,)


class ValidationReport(namedtuple("ValidationReport", "errors warnings")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_theory(t: Theory, lifting: bool = False) -> ValidationReport:
    """Well-formedness checks; findings are reported, nothing is raised."""
    from graphlib import CycleError, TopologicalSorter  # not at start-up
    report = ValidationReport([], [])
    links = TopologicalSorter()  # one linear pass finds an IS-A cycle
    for oa in t.ontology:
        links.add(oa.sub, oa.super)
        if oa.sub == oa.super:
            report.errors.append("reflexive ontology atom: %s" % oa)
    for ca in t.causal:
        if ca.cause == ca.effect:
            report.warnings.append("self-cause: %s" % ca)
    for clause in t.clauses:
        if clause.is_tautology():
            report.warnings.append("tautology dropped: %s" % (clause,))
    # a one-literal clause is the unit fact it prints as; a positive causal
    # fact is held in t.causal
    units = t.facts.union(*(c.literals for c in t.clauses
                            if len(c.literals) == 1))
    for lit in units:
        if lit.negated() in units or (not lit.positive
                                      and lit.atom in t.causal):
            report.errors.append("contradictory unit facts on %s" % lit.atom)
            break
    try:
        links.prepare()  # raises when some symbol reaches itself
    except CycleError:
        report.warnings.append("ontology contains a cycle (cyclic IS-A is "
                               "almost certainly a modeling error)")
    symbols, _ = symbol_universe(t)
    flat_names = {s.name for s in symbols if not s.structured}
    known = t.kind_decls.declared_predicates()
    pred_names = {s.name for s in symbols if s.structured} | known
    for name in sorted(flat_names & pred_names):
        report.warnings.append(
            "name %r used both as a propositional constant and a predicate" % name)
    if lifting:
        for s in sorted(symbols):
            if s.structured and s.name not in known:
                report.errors.append(
                    "structured symbol %s uses predicate %r with no kind "
                    "declaration" % (s, s.name))
    return report

