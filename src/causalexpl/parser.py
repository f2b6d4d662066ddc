"""Line-oriented fact-file parser and emitter.

Accepted statements (whitespace-insensitive, period-terminated, '%' comments):

    cause(a,b).  true(a).  -true(a).
    true(a) v -true(b) v cause(c,d).        % CNF clause / disjunctive fact
    symbol(a).  ont(a,b).  ont_object(a,b).  onekind(p).  allkind(p).
    all_onekind(p).  propkind(p).  restr(p).  kindPar(p,x,y).
    ecSet(i,j,{a,b}).  ecSetRes(i,j,{a,b}).

UNIT_STATEMENTS declares symbol ... kindPar, and STAGE_SECTIONS ecSet and
ecSetRes.  Parsing and emit_theory read the unit table; parsing and the
report writers in cli read the stage table.  Stage atoms are not emitted
here: cli.render_text writes them with the worlds and verdicts, in one order.
Structured symbols are written in brackets: cause([own,tom,book],x).
Braces may group clause statements, mirroring the source notation.
A two-literal clause over complementary polarities of one atom is read as a
completion request for that atom, not as a (tautological) clause.
"""
from __future__ import annotations

import re
from collections import defaultdict, namedtuple
from typing import Dict, List, Optional, Set

from .lifting import ObjectOntAtom
from .model import (CausalAtom, Clause, ExplanationAtom, KindDeclarations,
                    Literal, OntAtom, Symbol, Theory)


# A unit statement adds make(*arguments) to the Theory or KindDeclarations
# field of that name; a plain one takes plain object names, as strings.
UnitStatement = namedtuple("UnitStatement", "field arity plain make")
UNIT_STATEMENTS: Dict[str, UnitStatement] = {
    "symbol": UnitStatement("declared", 1, False, lambda s: s),
    "ont": UnitStatement("ontology", 2, False, OntAtom),
    "ont_object": UnitStatement("object_ontology", 2, True, ObjectOntAtom),
    "onekind": UnitStatement("onekind", 1, True, str),
    "allkind": UnitStatement("allkind", 1, True, str),
    "all_onekind": UnitStatement("all_onekind", 1, True, str),
    "propkind": UnitStatement("propkind", 1, True, str),
    "restr": UnitStatement("restricted", 1, True, str),
    "kindPar": UnitStatement("kind_par", 3, True, lambda *names: names),
}

# The explanation atoms of one stage: their StageFacts (and RunResult)
# field, fact-file functor, --format json key and "status", and the --stage
# values that emit them.
StageSection = namedtuple("StageSection", "field functor key status stages")
STAGE_SECTIONS = (
    StageSection("generated", "ecSet", "explanations", "generated",
                 ("gen", "all")),
    StageSection("optimal", "ecSetRes", "optimal", "optimal", ("opt", "all")),
)


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


_Token = namedtuple("_Token", "kind text line")


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split("%", 1)[0]):
            if m.lastgroup == "bad":
                raise ParseError("unexpected character %r" % m["bad"], lineno)
            tokens.append(_Token(m.lastgroup, m[m.lastgroup], lineno))
    return tokens


# The explanation atoms recovered from a previous stage's output; the
# parser records into StageFacts(set(), set()).
StageFacts = namedtuple("StageFacts", "generated optimal",
                        defaults=(frozenset(), frozenset()))


ParseResult = namedtuple("ParseResult", "theory stage warnings")


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.warnings: List[str] = []
        # Theory and KindDeclarations field name -> the values recorded
        self.sets: Dict[str, Set] = defaultdict(set)
        self.stage = StageFacts(set(), set())

    # -- token plumbing ----------------------------------------------------
    def _peek(self) -> Optional[str]:
        """The next token's text; None at the end of input."""
        return (self.tokens[self.pos].text if self.pos < len(self.tokens)
                else None)

    def _next(self, expect: str = None) -> _Token:
        if self.pos == len(self.tokens):
            last = self.tokens[-1].line if self.tokens else 1
            raise ParseError("unexpected end of input", last)
        tok = self.tokens[self.pos]
        if expect is not None and tok.text != expect:
            raise ParseError("expected %r, found %r" % (expect, tok.text), tok.line)
        self.pos += 1
        return tok

    def _name(self) -> _Token:
        tok = self._next()
        if tok.kind != "name":
            raise ParseError("expected a name, found %r" % tok.text, tok.line)
        return tok

    def _list(self, item, close: str) -> List:
        """item()'s values, one more after each comma, then the token close."""
        out = [item()]
        while self._peek() == ",":
            self._next()
            out.append(item())
        self._next(close)
        return out

    # -- grammar -----------------------------------------------------------
    def parse(self) -> ParseResult:
        while self._peek() is not None:
            if self._peek() in "{}":
                self._next()  # clause-group braces are decorative
            else:
                self._statement()
        theory = self._frozen(Theory, kind_decls=self._frozen(KindDeclarations))
        return ParseResult(theory, self.stage, self.warnings)

    def _frozen(self, cls, **given):
        """The namedtuple cls with its other fields the recorded sets."""
        return cls(**given, **{name: frozenset(self.sets[name])
                               for name in cls._fields if name not in given})

    def _statement(self):
        """Read one statement and record it."""
        line = self.tokens[self.pos].line
        items = [self._item()]
        while self._peek() == "v":
            self._next()
            items.append(self._item())
        self._next(".")
        if len(items) == 1 and items[0][1] is not None:
            value, where, head = items[0]
            where.add(value)
            if head.text in KindDeclarations._fields:  # a predicate's kinds
                try:
                    self._frozen(KindDeclarations)
                except ValueError as exc:
                    raise ParseError(str(exc), line)
            return
        for _, where, head in items:
            if where is not None:
                raise ParseError("only true/cause literals may appear in a "
                                 "disjunction", head.line)
        unique = frozenset(value for value, _, _ in items)
        clause = Clause(unique)
        if len(unique) == 1:  # `true(a) v true(a).` means `true(a).`
            self._fact(*unique, line)
        elif not clause.is_tautology():
            self.sets["clauses"].add(clause)
        elif len(unique) == 2:  # `true(a) v -true(a).` completes a
            self.sets["completions"].add(next(iter(unique)).atom)
        else:
            self.warnings.append("line %d: tautology dropped: %s"
                                 % (line, clause))

    def _fact(self, lit: Literal, line: int):
        if lit.negated() in self.sets["facts"] or (
                not lit.positive and lit.atom in self.sets["causal"]):
            raise ParseError("contradictory unit facts on %s" % lit.atom, line)
        if isinstance(lit.atom, CausalAtom) and lit.positive:
            self.sets["causal"].add(lit.atom)
        else:
            self.sets["facts"].add(lit)

    def _symbol(self) -> Symbol:
        if self._peek() == "[":
            self._next()
            name, *args = self._list(lambda: self._name().text, "]")
            return Symbol(name, tuple(args))
        return Symbol(self._name().text)

    def _args(self, count: int, head: _Token) -> List:
        self._next("(")
        out = self._list(self._symbol, ")")
        if len(out) != count:
            raise ParseError("%s expects %d argument(s), found %d"
                             % (head.text, count, len(out)), head.line)
        return out

    def _item(self):
        """One functor application, optionally negated, as (value, where,
        head): where is None for a literal, else the set value is added to."""
        negative = self._peek() == "-"
        if negative:
            self._next()
        head = self._name()
        functor = head.text

        if functor == "true":
            (s,) = self._args(1, head)
            return Literal(s, not negative), None, head
        if functor == "cause":
            a, b = self._args(2, head)
            return Literal(CausalAtom(a, b), not negative), None, head
        if negative:
            raise ParseError("'-' applies to true/1 and cause/2 only", head.line)

        unit = UNIT_STATEMENTS.get(functor)
        if unit is not None:
            args = self._args(unit.arity, head)
            # make's own check (a reflexive ont_object) comes first; a
            # plain symbol's text is its name
            try:
                value = unit.make(*(map(str, args) if unit.plain else args))
            except ValueError as exc:
                raise ParseError(str(exc), head.line)
            if unit.plain and any(s.structured for s in args):
                raise ParseError("%s expects plain object names" % functor,
                                 head.line)
            return value, self.sets[unit.field], head
        for section in STAGE_SECTIONS:
            if functor == section.functor:
                return (self._explanation(head),
                        getattr(self.stage, section.field), head)
        raise ParseError("unknown statement %r" % functor, head.line)

    def _explanation(self, head: _Token) -> ExplanationAtom:
        self._next("(")
        i = self._symbol()
        self._next(",")
        j = self._symbol()
        self._next(",")
        self._next("{")
        members = self._list(self._symbol, "}")
        self._next(")")
        try:
            return ExplanationAtom(i, j, members)
        except ValueError as exc:
            raise ParseError(str(exc), head.line)


def parse_input(text: str) -> ParseResult:
    """Parse a fact file; also accepts a JSON stage report (see
    cli.render_json)."""
    if text.lstrip().startswith("{"):
        import json  # only JSON input needs it
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
    import json
    raise ParseError("not a symbol: %s" % json.dumps(text))


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        import json
        raise ParseError("%s must be a list, found %s"
                         % (what, json.dumps(value)))
    return value


def _json_atom(entry) -> ExplanationAtom:
    """One explanation object; its "status" is ignored."""
    if not (isinstance(entry, dict)
            and {"from", "to", "conditions"} <= entry.keys()):
        import json
        raise ParseError("an explanation needs \"from\", \"to\" and "
                         "\"conditions\", found %s" % json.dumps(entry))
    conditions = _json_list(entry["conditions"], "\"conditions\"")
    return ExplanationAtom(
        _symbol_from_text(entry["from"]),
        _symbol_from_text(entry["to"]),
        map(_symbol_from_text, conditions))


def _parse_json_stage(data: dict) -> ParseResult:
    """The "explanations" (generated) and "optimal" atoms of a --format
    json report, which is otherwise ignored; ParseError when their shape or
    a symbol is malformed."""
    stage = StageFacts(set(), set())
    for section in STAGE_SECTIONS:
        for entry in _json_list(data.get(section.key, []),
                                "\"%s\"" % section.key):
            getattr(stage, section.field).add(_json_atom(entry))
    return ParseResult(theory=Theory(), stage=stage, warnings=[])


# -- emission ---------------------------------------------------------------

def _emit_units(values, fields) -> List[str]:
    """The unit statements of the given fields of values, in table order."""
    return ["%s(%s)." % (functor, ",".join(v) if unit.arity > 1 else v)
            for functor, unit in UNIT_STATEMENTS.items()
            if unit.field in fields
            for v in sorted(getattr(values, unit.field))]


def emit_theory(t: Theory) -> str:
    """Canonical fact-file text; parse(emit_theory(parse(x))) == parse(x)."""
    lines = _emit_units(t, ("declared",))
    for values in (t.causal, t.ontology, t.facts):
        lines += ["%s." % x for x in sorted(values, key=str)]
    for atom in sorted(t.completions, key=str):
        pos = Literal(atom, True)
        lines.append("%s v %s." % (pos, pos.negated()))
    for values in (t.disjunctive_facts, t.object_ontology):  # no tautology
        lines += ["%s." % (x,) for x in sorted(values, key=str)]
    lines += _emit_units(t.kind_decls, KindDeclarations._fields)
    return "\n".join(lines) + ("\n" if lines else "")
