"""Fact-file parsing, emission, and round-trip stability."""
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.cli import RunConfig, RunResult, render_text
from causalexpl.model import (CausalAtom, Clause, KindDeclarations, Literal,
                              OntAtom, Symbol, Theory, sym)
from causalexpl.parser import (UNIT_STATEMENTS, ParseError, emit_theory,
                               parse_input)
from causalexpl.worlds import enumerate_worlds
from conftest import atom_keys


def test_basic_facts():
    t = parse_input("cause(alpha,beta). ont(beta,beta2). "
                    "true(alpha). -true(gamma1). symbol(iota).").theory
    assert CausalAtom(sym("alpha"), sym("beta")) in t.causal
    assert OntAtom(sym("beta"), sym("beta2")) in t.ontology
    assert Literal(sym("alpha"), True) in t.facts
    assert Literal(sym("gamma1"), False) in t.facts
    assert sym("iota") in t.declared


def test_comments_and_whitespace():
    t = parse_input("""
        % a comment line
        cause( alpha , beta ).   % trailing comment
          ont(beta,
              beta2).
    """).theory
    assert len(t.causal) == 1 and len(t.ontology) == 1


def test_clause_with_braces():
    r = parse_input("{-true(epsilon1) v -true(gamma1) v -true(gamma2).}")
    (clause,) = r.theory.clauses
    assert len(clause.literals) == 3
    assert all(not lit.positive for lit in clause.literals)


def test_causal_literals_in_clauses():
    r = parse_input("cause(beta2,gamma) v cause(epsilon3,gamma3).")
    (clause,) = r.theory.clauses
    assert all(isinstance(lit.atom, CausalAtom) for lit in clause.literals)


def test_complementary_pair_becomes_completion():
    r = parse_input("true(a) v -true(a). cause(x,y) v -cause(x,y).")
    assert r.theory.clauses == frozenset()
    assert sym("a") in r.theory.completions
    assert CausalAtom(sym("x"), sym("y")) in r.theory.completions


def test_wider_tautology_dropped_with_warning():
    r = parse_input("true(a) v -true(a) v true(b).")
    assert r.theory.clauses == frozenset()
    assert any("tautology" in w for w in r.warnings)


def test_structured_symbols():
    t = parse_input("cause([own,tom,book],happy). ont([p],[q]).").theory
    (ca,) = t.causal
    assert ca.cause == Symbol("own", ("tom", "book"))
    (oa,) = t.ontology
    assert oa.sub == Symbol("p", ())


def test_one_symbol_object_per_name_in_a_parse():
    t = parse_input("cause(alpha,[p,x]). true(alpha). -true([p,x]).").theory
    (ca,) = t.causal
    facts = {lit.positive: lit.atom for lit in t.facts}
    assert facts[True] is ca.cause and facts[False] is ca.effect
    r = parse_input('{"explanations": [{"from": "alpha", "to": "[p,x]", '
                    '"conditions": ["alpha", "[p,x]"]}]}')
    (g,) = r.stage.generated
    assert {id(s) for s in g.conditions} == {id(g.source), id(g.target)}


def test_lifting_facts():
    t = parse_input("ont_object(tom,student). onekind(heard). "
                     "allkind(like). all_onekind(own). propkind(alpha). "
                    "restr(own). kindPar(own,student,book).").theory
    assert len(t.object_ontology) == 1
    kd = t.kind_decls
    assert kd.onekind == frozenset({"heard"})
    assert kd.all_onekind == frozenset({"own"})
    assert ("own", "student", "book") in kd.kind_par


def test_stage_fact_lines():
    r = parse_input("ecSet(alpha,delta,{alpha,gamma1}).\n"
                    "ecSetRes(alpha,delta,{alpha,gamma2}).")
    assert atom_keys(r.stage.generated) == {
        (sym("alpha"), sym("delta"), (sym("alpha"), sym("gamma1")))}
    assert atom_keys(r.stage.optimal) == {
        (sym("alpha"), sym("delta"), (sym("alpha"), sym("gamma2")))}
    with pytest.raises(ParseError, match="line 1: unknown statement"):
        parse_input("explVer(2,alpha,delta,{alpha,gamma2}).")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_input("cause(a,b).\nont(a).").theory
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_input("cause(a,b)").theory  # missing period
    with pytest.raises(ParseError):
        parse_input("frobnicate(a).").theory
    with pytest.raises(ParseError):
        parse_input("-ont(a,b).").theory


@pytest.mark.parametrize("text, message", [
    ("true(a", "line 1: unexpected end of input"),
    ("true(a) $", "line 1: unexpected character '$'"),
    ("true(1).", "line 1: expected a name, found '1'"),
    ("-ont(a,b).", "line 1: '-' applies to true/1 and cause/2 only"),
    ("ont_object(x,x).", "line 1: reflexive ont_object atom"),
    ("allkind(p).\nall_onekind(p).",
     "line 2: predicate(s) ['p'] declared both allkind and all_onekind"),
    ('{"explanations": 3}', '"explanations" must be a list, found 3'),
    ('{"optimal": [5]}', 'an explanation needs "from", "to" and '
     '"conditions", found 5'),
    ('{"optimal": [{"from": "a", "to": 7, "conditions": ["a"]}]}',
     "not a symbol: 7"),
    ('{"optimal": [{"from": "a", "to": "b", "conditions": "a"}]}',
     '"conditions" must be a list, found "a"'),
], ids=["end-of-input", "bad-character", "number-for-name",
        "negated-unit", "reflexive-ont-object", "kind-clash", "json-section",
        "json-entry", "json-symbol", "json-conditions"])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert str(err.value) == message


_KINDS = ("onekind", "allkind", "all_onekind", "propkind")


@pytest.mark.parametrize("first, second", [(a, b) for a in _KINDS
                                           for b in _KINDS if a != b])
def test_kind_clash_message_in_every_order(first, second):
    with pytest.raises(ParseError) as err:
        parse_input("%s(p).\nonekind(q).\n%s(p)." % (first, second))
    x, y = sorted((first, second), key=KindDeclarations._fields.index)
    assert str(err.value) == \
        "line 3: predicate(s) ['p'] declared both %s and %s" % (x, y)
    assert parse_input("%s(p).\n%s(p)." % (first, first)).theory == \
        parse_input("%s(p)." % first).theory


def test_kind_declarations_parse_in_linear_time(monkeypatch):
    """Each kind statement is checked on a record of its own predicate, so
    the records built for n declarations hold 2n predicates in all: one
    per statement, and n in the record of the whole parse."""
    held = []
    check = KindDeclarations.__post_init__

    def counted(self):
        held.append(len(self.declared_predicates()))
        check(self)
    monkeypatch.setattr(KindDeclarations, "__post_init__", counted)
    text = "".join("allkind(p%d).\n" % i for i in range(500))
    assert len(parse_input(text).theory.kind_decls.allkind) == 500
    assert sum(held) <= 1000  # 125,750 when every statement rechecks all
    monkeypatch.undo()
    text = "".join("allkind(p%d).\n" % i for i in range(20000))
    start = time.perf_counter()
    parse_input(text)
    assert time.perf_counter() - start < 2.0


def test_contradictory_unit_facts_hard_error():
    with pytest.raises(ParseError):
        parse_input("true(a). -true(a).").theory


@pytest.mark.parametrize("text", ["cause(a,b).\n-cause(a,b).",
                                  "-cause(a,b).\ncause(a,b)."])
def test_contradictory_causal_facts_hard_error(text):
    with pytest.raises(ParseError) as err:
        parse_input(text).theory
    assert str(err.value) == "line 2: contradictory unit facts on cause(a,b)"


def test_disjunction_of_one_literal_is_a_unit_fact():
    assert parse_input("true(a) v true(a).").theory == \
        parse_input("true(a).").theory
    assert parse_input("cause(c,d) v cause(c,d).").theory == \
        parse_input("cause(c,d).").theory
    with pytest.raises(ParseError) as err:
        parse_input("true(a).\n-true(a) v -true(a).").theory
    assert str(err.value) == "line 2: contradictory unit facts on a"


def test_reflexive_object_ontology_rejected():
    with pytest.raises(ParseError):
        parse_input("ont_object(bell,bell).").theory


def test_theory_round_trip(diagram_text):
    first = parse_input(diagram_text).theory
    text = emit_theory(first)
    second = parse_input(text).theory
    assert first == second
    assert emit_theory(second) == text


def test_round_trip_covers_all_statement_kinds():
    src = """
    symbol(iota). cause(a,b). ont(c,d). true(a). -true(d).
    true(a) v true(c). true(b) v -true(b).
    true(e) v true(e). cause(f,g) v cause(f,g).
    ont_object(tom,student). all_onekind(own).
    restr(own). kindPar(own,student,book).
    """
    first = parse_input(src).theory
    assert parse_input(emit_theory(first)).theory == first


def test_emit_theory_leaves_out_a_tautological_clause():
    # the run drops the clause; printed, it would parse as a completion
    x = sym("a")
    t = Theory(causal=frozenset([CausalAtom(x, sym("b"))]),
               clauses=frozenset([Clause(frozenset([Literal(x, True),
                                                    Literal(x, False)]))]))
    assert emit_theory(t) == "cause(a,b).\n"
    parsed = parse_input(emit_theory(t)).theory
    assert len(enumerate_worlds(t)) == len(enumerate_worlds(parsed)) == 1


_SYMBOLS = st.sampled_from(["a", "b", "c", "[p,a]", "[p,b,c]"])


@st.composite
def _literal(draw):
    if draw(st.booleans()):
        text = "true(%s)" % draw(_SYMBOLS)
    else:
        text = "cause(%s,%s)" % (draw(_SYMBOLS), draw(_SYMBOLS))
    return draw(st.sampled_from(["", "-"])) + text


def _complement(literal):
    return literal[1:] if literal.startswith("-") else "-" + literal


@st.composite
def _statement(draw):
    """One statement of any kind: a unit statement, a literal, or a clause
    that is plain, duplicated, complementary or tautological."""
    kind = draw(st.sampled_from(["unit", "literal", "clause", "duplicate",
                                 "completion", "tautology"]))
    if kind == "unit":
        functor = draw(st.sampled_from(sorted(UNIT_STATEMENTS)))
        unit = UNIT_STATEMENTS[functor]
        names = st.sampled_from(["a", "b", "c"]) if unit.plain else _SYMBOLS
        body = "%s(%s)" % (functor, ",".join(
            draw(names) for _ in range(unit.arity)))
    elif kind == "literal":
        body = draw(_literal())
    elif kind == "clause":
        body = " v ".join(draw(st.lists(_literal(), min_size=2, max_size=3)))
    else:
        first = draw(_literal())
        second = first if kind == "duplicate" else _complement(first)
        rest = [draw(_literal())] if kind == "tautology" else []
        body = " v ".join([first, second] + rest)
    return body + "."


def _text(draw, statements):
    """statements joined by whitespace, comments and decorative braces."""
    parts = []
    for statement in statements:
        braced = draw(st.booleans())
        parts += ["{" if braced else "", statement, "}" if braced else "",
                  draw(st.sampled_from([" ", "\n", "\t", " % note\n"]))]
    return "".join(parts)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(_statement(), max_size=6))
def test_parsed_text_round_trips_in_any_statement_order(data, statements):
    def theory(statements):
        try:
            return parse_input(_text(data.draw, statements)).theory
        except ValueError:  # KindDeclarations' own check too
            return None

    t = theory(statements)
    assert theory(data.draw(st.permutations(statements))) == t
    if t is not None:
        assert parse_input(emit_theory(t)).theory == t


@pytest.mark.parametrize("functor", sorted(UNIT_STATEMENTS))
def test_every_unit_statement_parses_emits_and_checks(functor):
    unit = UNIT_STATEMENTS[functor]
    args = ["n%d" % i for i in range(unit.arity)]
    line = "%s(%s)." % (functor, ",".join(args))
    first = parse_input(line).theory
    assert first != parse_input("").theory
    assert line in emit_theory(first).splitlines()
    assert parse_input(emit_theory(first)).theory == first

    with pytest.raises(ParseError) as err:
        parse_input("\n%s(%s)." % (functor, ",".join(args + ["extra"])))
    assert str(err.value) == "line 2: %s expects %d argument(s), found %d" \
        % (functor, unit.arity, unit.arity + 1)

    bracketed = "%s([p,q]%s)." % (functor, "".join(",%s" % a
                                                    for a in args[1:]))
    if unit.plain:
        with pytest.raises(ParseError) as err:
            parse_input(bracketed)
        assert str(err.value) == \
            "line 1: %s expects plain object names" % functor
    else:
        assert parse_input(bracketed).theory != parse_input("").theory


def test_emit_atoms_canonical_order():
    r = parse_input("ecSet(b,c,{b}). ecSet(a,c,{a,x}). ecSet(a,b,{a}).")
    result = RunResult(generated=frozenset(r.stage.generated))
    lines = render_text(result, RunConfig(stage="gen")).splitlines()
    assert lines == ["ecSet(a,b,{a}).", "ecSet(a,c,{a,x}).", "ecSet(b,c,{b})."]


def test_json_stage_report_parses():
    doc = """{
      "explanations": [
        {"from": "alpha", "to": "delta",
         "conditions": ["alpha", "gamma1"], "status": "generated"}],
      "optimal": [
        {"from": "alpha", "to": "delta",
         "conditions": ["alpha", "gamma1"], "status": "optimal"}],
      "worlds": [
        {"index": 1, "facts": [],
         "explanations": [{"from": "alpha", "to": "delta",
                           "conditions": ["alpha", "gamma2"]}]}]
    }"""
    r = parse_input(doc)
    (g,) = r.stage.generated
    assert g.target == sym("delta")
    (o,) = r.stage.optimal  # the world's atoms are not read
    assert o.conditions == {sym("alpha"), sym("gamma1")}
