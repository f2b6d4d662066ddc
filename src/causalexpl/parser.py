"""Line-oriented fact-file parser and emitter.

Accepted statements (whitespace-insensitive, period-terminated, '%' comments):

    symbol(a).                      cause(a,b).         ont(a,b).
    true(a).                        -true(a).
    true(a) v -true(b) v cause(c,d).        % CNF clause / disjunctive fact
    ont_object(a,b).  onekind(p).  allkind(p).  all_onekind(p).  propkind(a).
    restr(p).  kindPar(p,x,y).
    ecSet(i,j,{a,b}).  ecSetRes(i,j,{a,b}).

Structured symbols are written in brackets: cause([own,tom,book],x).
Braces may group clause statements, mirroring the source notation.
A two-literal clause over complementary polarities of one atom is read as a
completion request for that atom, not as a (tautological) clause.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .lifting import KindDeclarations, ObjectOntAtom
from .model import (CausalAtom, Clause, ExplanationAtom, Literal, OntAtom,
                    Symbol, Theory, atom_sort_key, canonical_conditions)


class ParseError(ValueError):
    """Malformed input; line is None for JSON input."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None
                         else "line %d: %s" % (line, message))
        self.line = line


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<punct>[().,\-{}\[\]])"
                       r"|(?P<num>\d+)"
                       r"|(?P<bad>\S))")


@dataclass
class _Token:
    kind: str
    text: str
    line: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("%", 1)[0]
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                break
            pos = m.end()
            for kind in ("name", "punct", "num"):
                if m.group(kind) is not None:
                    tokens.append(_Token(kind, m.group(kind), lineno))
                    break
            else:
                raise ParseError("unexpected character %r" % m.group("bad"), lineno)
    return tokens


@dataclass
class StageFacts:
    """Explanation atoms recovered from a previous stage's output."""
    generated: Set[ExplanationAtom] = field(default_factory=set)
    optimal: Set[ExplanationAtom] = field(default_factory=set)

    def merge(self, other: "StageFacts"):
        self.generated |= other.generated
        self.optimal |= other.optimal


@dataclass
class ParseResult:
    theory: Theory
    stage: StageFacts
    warnings: List[str] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.warnings: List[str] = []
        self.causal: Set[CausalAtom] = set()
        self.ontology: Set[OntAtom] = set()
        self.facts: Set[Literal] = set()
        self.clauses: Set[Clause] = set()
        self.declared: Set[Symbol] = set()
        self.completions: Set[object] = set()
        self.object_ontology: Set[ObjectOntAtom] = set()
        self.onekind: Set[str] = set()
        self.allkind: Set[str] = set()
        self.all_onekind: Set[str] = set()
        self.propkind: Set[str] = set()
        self.restricted: Set[str] = set()
        self.kind_par: Set[Tuple[str, str, str]] = set()
        self.stage = StageFacts()

    # -- token plumbing ----------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1].line if self.tokens else 1
            raise ParseError("unexpected end of input", last)
        if expect is not None and tok.text != expect:
            raise ParseError("expected %r, found %r" % (expect, tok.text), tok.line)
        self.pos += 1
        return tok

    def _name(self) -> _Token:
        tok = self._next()
        if tok.kind != "name":
            raise ParseError("expected a name, found %r" % tok.text, tok.line)
        return tok

    # -- grammar -----------------------------------------------------------
    def parse(self) -> ParseResult:
        while self._peek() is not None:
            tok = self._peek()
            if tok.text in "{}":
                self._next()  # clause-group braces are decorative
                continue
            self._statement()
        theory = Theory(
            causal=frozenset(self.causal),
            ontology=frozenset(self.ontology),
            facts=frozenset(self.facts),
            clauses=frozenset(self.clauses),
            declared=frozenset(self.declared),
            completions=frozenset(self.completions),
            object_ontology=frozenset(self.object_ontology),
            kind_decls=KindDeclarations(
                onekind=frozenset(self.onekind),
                allkind=frozenset(self.allkind),
                all_onekind=frozenset(self.all_onekind),
                propkind=frozenset(self.propkind),
                restricted=frozenset(self.restricted),
                kind_par=frozenset(self.kind_par)),
        )
        return ParseResult(theory=theory, stage=self.stage,
                           warnings=self.warnings)

    def _statement(self):
        start = self._peek().line
        literals = [self._literal_or_fact()]
        while self._peek() is not None and self._peek().text == "v":
            self._next()
            literals.append(self._literal_or_fact())
        self._next(".")
        if len(literals) == 1:
            self._record_unit(literals[0], start)
        else:
            self._record_clause(literals, start)

    def _symbol(self) -> Symbol:
        tok = self._peek()
        if tok is not None and tok.text == "[":
            self._next()
            parts = [self._name().text]
            while self._peek() is not None and self._peek().text == ",":
                self._next()
                parts.append(self._name().text)
            self._next("]")
            return Symbol(parts[0], tuple(parts[1:]))
        return Symbol(self._name().text)

    def _args(self, minimum: int, maximum: int, head: _Token) -> List:
        self._next("(")
        out = [self._symbol()]
        while self._peek() is not None and self._peek().text == ",":
            self._next()
            out.append(self._symbol())
        self._next(")")
        if not minimum <= len(out) <= maximum:
            raise ParseError("%s expects %s argument(s), found %d"
                             % (head.text,
                                minimum if minimum == maximum
                                else "%d..%d" % (minimum, maximum),
                                len(out)), head.line)
        return out

    def _flat(self, s: Symbol, head: _Token) -> str:
        if s.structured:
            raise ParseError("%s expects plain object names" % head.text,
                             head.line)
        return s.name

    def _literal_or_fact(self):
        """One functor application, optionally negated; returns a tagged value."""
        negative = False
        tok = self._peek()
        if tok is not None and tok.text == "-":
            self._next()
            negative = True
        head = self._name()
        functor = head.text

        if functor == "true":
            (s,) = self._args(1, 1, head)
            return ("lit", Literal(s, not negative), head)
        if functor == "cause":
            a, b = self._args(2, 2, head)
            return ("lit", Literal(CausalAtom(a, b), not negative), head)
        if negative:
            raise ParseError("'-' applies to true/1 and cause/2 only", head.line)

        if functor == "symbol":
            (s,) = self._args(1, 1, head)
            return ("symbol", s, head)
        if functor == "ont":
            a, b = self._args(2, 2, head)
            return ("ont", OntAtom(a, b), head)
        if functor == "ont_object":
            a, b = self._args(2, 2, head)
            if a == b:
                raise ParseError("reflexive ont_object atom", head.line)
            return ("ont_object",
                    ObjectOntAtom(self._flat(a, head), self._flat(b, head)),
                    head)
        if functor in ("onekind", "allkind", "all_onekind", "propkind", "restr"):
            (s,) = self._args(1, 1, head)
            return (functor, self._flat(s, head), head)
        if functor == "kindPar":
            p, x, y = self._args(3, 3, head)
            return ("kindPar", (self._flat(p, head), self._flat(x, head),
                                self._flat(y, head)), head)
        if functor in ("ecSet", "ecSetRes"):
            return (functor, self._explanation(head), head)
        raise ParseError("unknown statement %r" % functor, head.line)

    def _explanation(self, head: _Token) -> ExplanationAtom:
        self._next("(")
        i = self._symbol()
        self._next(",")
        j = self._symbol()
        self._next(",")
        self._next("{")
        members = [self._symbol()]
        while self._peek() is not None and self._peek().text == ",":
            self._next()
            members.append(self._symbol())
        self._next("}")
        self._next(")")
        try:
            return ExplanationAtom(i, j, canonical_conditions(members))
        except ValueError as exc:
            raise ParseError(str(exc), head.line)

    # -- recording ---------------------------------------------------------
    def _record_unit(self, item, line: int):
        tag, value = item[0], item[1]
        if tag == "lit":
            if isinstance(value.atom, CausalAtom) and value.positive:
                self.causal.add(value.atom)
                return
            if value.negated() in self.facts:
                raise ParseError("contradictory unit facts on %s" % value.atom,
                                 line)
            self.facts.add(value)
        elif tag == "symbol":
            self.declared.add(value)
        elif tag == "ont":
            self.ontology.add(value)
        elif tag == "ont_object":
            self.object_ontology.add(value)
        elif tag in ("onekind", "allkind", "all_onekind", "propkind", "restr"):
            target = {"onekind": self.onekind, "allkind": self.allkind,
                      "all_onekind": self.all_onekind,
                      "propkind": self.propkind,
                      "restr": self.restricted}[tag]
            target.add(value)
        elif tag == "kindPar":
            self.kind_par.add(value)
        elif tag == "ecSet":
            self.stage.generated.add(value)
        elif tag == "ecSetRes":
            self.stage.optimal.add(value)

    def _record_clause(self, items, line: int):
        literals = []
        for item in items:
            if item[0] != "lit":
                raise ParseError("only true/cause literals may appear in a "
                                 "disjunction", item[2].line)
            literals.append(item[1])
        unique = frozenset(literals)
        if len(unique) == 2:
            lits = sorted(unique, key=lambda l: l.render())
            if lits[0].atom == lits[1].atom and lits[0].positive != lits[1].positive:
                self.completions.add(lits[0].atom)
                return
        clause = Clause(unique)
        if clause.is_tautology():
            self.warnings.append("line %d: tautology dropped: %s"
                                 % (line, clause))
            return
        self.clauses.add(clause)


def parse_input(text: str) -> ParseResult:
    """Parse a fact file; also accepts a JSON stage report (see emit_json)."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError):
            data = None  # braces also group fact-file clauses
        if isinstance(data, dict):
            return _parse_json_stage(data)
    return _Parser(_tokenize(text)).parse()


def _symbol_from_text(text) -> Symbol:
    """One symbol in fact-file syntax, as the JSON report writes it."""
    try:
        if isinstance(text, str) and "%" not in text:  # '%' starts a comment
            parser = _Parser(_tokenize(text))
            s = parser._symbol()
            if parser._peek() is None:
                return s
    except ParseError:
        pass
    raise ParseError("not a symbol: %s" % json.dumps(text))


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError("%s must be a list, found %s"
                         % (what, json.dumps(value)))
    return value


def _json_atom(entry) -> ExplanationAtom:
    """One explanation object; its "status" is ignored."""
    if not (isinstance(entry, dict)
            and {"from", "to", "conditions"} <= entry.keys()):
        raise ParseError("an explanation needs \"from\", \"to\" and "
                         "\"conditions\", found %s" % json.dumps(entry))
    conditions = _json_list(entry["conditions"], "\"conditions\"")
    return ExplanationAtom(
        _symbol_from_text(entry["from"]), _symbol_from_text(entry["to"]),
        canonical_conditions(_symbol_from_text(c) for c in conditions))


def _parse_json_stage(data: dict) -> ParseResult:
    """The "explanations" (generated) and "optimal" atoms of a --format
    json report, which is otherwise ignored; ParseError when their shape or
    a symbol is malformed."""
    stage = StageFacts()
    for key, atoms in (("explanations", stage.generated),
                       ("optimal", stage.optimal)):
        for entry in _json_list(data.get(key, []), "\"%s\"" % key):
            atoms.add(_json_atom(entry))
    return ParseResult(theory=Theory(), stage=stage)


def parse_theory(text: str) -> Theory:
    return parse_input(text).theory


# -- emission ---------------------------------------------------------------

def emit_theory(t: Theory) -> str:
    """Canonical fact-file text; parse(emit_theory(parse(x))) == parse(x)."""
    lines = []
    for s in sorted(t.declared):
        lines.append("symbol(%s)." % s)
    for ca in sorted(t.causal, key=str):
        lines.append("%s." % ca)
    for oa in sorted(t.ontology, key=str):
        lines.append("%s." % oa)
    for lit in sorted(t.facts, key=lambda l: l.render()):
        lines.append("%s." % lit)
    for atom in sorted(t.completions, key=str):
        pos = Literal(atom, True)
        lines.append("%s v %s." % (pos, pos.negated()))
    for clause in sorted(t.clauses, key=lambda c: c.render()):
        lines.append("%s." % clause)
    for oa in sorted(t.object_ontology, key=str):
        lines.append("%s." % oa)
    kd = t.kind_decls
    if kd is not None:
        for tag, values in (("onekind", kd.onekind), ("allkind", kd.allkind),
                            ("all_onekind", kd.all_onekind),
                            ("propkind", kd.propkind), ("restr", kd.restricted)):
            for name in sorted(values):
                lines.append("%s(%s)." % (tag, name))
        for p, x, y in sorted(kd.kind_par):
            lines.append("kindPar(%s,%s,%s)." % (p, x, y))
    return "\n".join(lines) + ("\n" if lines else "")


def emit_atoms(atoms, functor: str) -> List[str]:
    return ["%s." % atom.render(functor)
            for atom in sorted(atoms, key=atom_sort_key)]


def emit_verified(verified: Dict[int, FrozenSet[ExplanationAtom]]) -> List[str]:
    lines = []
    for index in sorted(verified):
        for atom in sorted(verified[index], key=atom_sort_key):
            lines.append("explVer(%d,%s,%s,{%s})."
                         % (index, atom.source, atom.target,
                            ",".join(str(s) for s in atom.conditions)))
    return lines
