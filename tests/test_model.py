"""Data-model behaviour: symbols, clauses, condition sets, validation."""
import copy
import json
import os
import pickle
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl import closure, lifting, model
from causalexpl.cli import RunConfig, run_pipeline
from causalexpl.model import (CausalAtom, Clause, ExplanationAtom, Literal,
                              OntAtom, Symbol, Theory, sym, symbol_universe,
                              validate_theory)
from causalexpl.lifting import KindDeclarations, ObjectOntAtom, lift
from causalexpl.parser import ParseError, emit_theory, parse_input

a, b, g, d = sym("alpha"), sym("beta"), sym("gamma"), sym("delta")


def test_symbol_render_flat_and_structured():
    assert str(sym("alpha")) == "alpha"
    assert str(sym("own", "tom", "book")) == "[own,tom,book]"
    assert sym("own", "tom", "book").structured
    assert not sym("alpha").structured


def test_symbol_name_required():
    with pytest.raises(ValueError):
        Symbol("")


def test_symbol_total_order_is_lexicographic_on_rendered_form():
    items = [sym("own", "tom", "book"), sym("alpha"), sym("zeta")]
    assert [str(s) for s in sorted(items)] == sorted(str(s) for s in items)


@given(st.lists(st.sampled_from([b, g, d])))
def test_conditions_are_a_frozenset_of_any_iterable(others):
    members = [a] + others + [a]
    atoms = {ExplanationAtom(a, d, members),
             ExplanationAtom(a, d, tuple(reversed(members))),
             ExplanationAtom(a, d, (s for s in members)),
             ExplanationAtom(a, d, frozenset(members))}
    assert len(atoms) == 1
    (atom,) = atoms
    assert atom.conditions == frozenset(members)
    assert type(atom.conditions) is frozenset
    # the mask holds each member's bit once, and decodes back to the members
    assert atom.mask == sum(s.bit for s in frozenset(members))
    assert atom._replace(mask=atom.mask) == atom
    assert ExplanationAtom(a, d, atom.conditions) == atom
    with pytest.raises(ValueError):
        ExplanationAtom(a, d, others)
    with pytest.raises(ValueError):
        atom._replace(mask=atom.mask & ~a.bit)


def test_empty_condition_set_rejected():
    with pytest.raises(ValueError):
        ExplanationAtom(a, d, [])


def test_explanation_atom_requires_source_membership():
    ExplanationAtom(a, d, (a, g))
    with pytest.raises(ValueError):
        ExplanationAtom(a, d, (g,))


def test_clause_tautology_and_empty():
    taut = Clause(frozenset([Literal(a, True), Literal(a, False)]))
    assert taut.is_tautology()
    # a clause is a one-field tuple, so it must not be taken for %-arguments
    assert validate_theory(Theory(clauses=frozenset([taut]))).warnings == [
        "tautology dropped: -true(alpha) v true(alpha)"]
    plain = Clause(frozenset([Literal(a, True), Literal(b, False)]))
    assert not plain.is_tautology()
    with pytest.raises(ValueError):
        Clause(frozenset())


def test_literal_render():
    assert Literal(a, False).render() == "-true(alpha)"
    assert Literal(CausalAtom(a, b), True).render() == "cause(alpha,beta)"


def test_symbol_universe(diagram):
    symbols, symbol_e = symbol_universe(diagram)
    assert len(symbol_e) == 15
    assert symbols == symbol_e  # no extra facts in the bare diagram
    extended = Theory(causal=diagram.causal, ontology=diagram.ontology,
                      facts=frozenset([Literal(sym("outside"), True)]))
    symbols2, symbol_e2 = symbol_universe(extended)
    assert symbol_e2 == symbol_e
    assert sym("outside") in symbols2


def test_tautological_clause_adds_no_symbol_in_code_or_text():
    # the parser drops the clause; a theory built in code keeps it in
    # clauses, and the universe and the run skip it alike
    c, d = sym("c"), sym("d")
    text = "cause(a,b). -true(c) v true(c) v true(d).\n"
    built = Theory(causal=frozenset([CausalAtom(sym("a"), sym("b"))]),
                   clauses=frozenset([Clause(frozenset([
                       Literal(c, False), Literal(c), Literal(d)]))]))
    parsed = parse_input(text).theory
    assert parsed.clauses == frozenset() and built.clauses
    assert symbol_universe(built) == symbol_universe(parsed)
    assert c not in symbol_universe(built)[0]
    stage = parse_input("ecSetRes(c,d,{c}).\n").stage
    for theory in (built, parsed):
        with pytest.raises(ValueError, match="c explains d with c, d,"):
            run_pipeline(theory, stage, RunConfig(stage="verify"))


def test_validate_reflexive_ontology_is_error():
    t = Theory(ontology=frozenset([OntAtom(a, a)]))
    report = validate_theory(t)
    assert not report.ok
    assert any("reflexive" in e for e in report.errors)


def test_validate_diagram_clean(diagram):
    report = validate_theory(diagram)
    assert report.ok
    assert report.warnings == []


def test_validate_self_cause_warns():
    t = Theory(causal=frozenset([CausalAtom(a, a)]))
    report = validate_theory(t)
    assert report.ok
    assert any("self-cause" in w for w in report.warnings)


def test_validate_contradictory_facts_error():
    t = Theory(facts=frozenset([Literal(a, True), Literal(a, False)]))
    assert not validate_theory(t).ok


def test_validate_contradictory_causal_facts_error():
    # cause(a,b) is held in causal, -cause(a,b) in facts
    ab = CausalAtom(a, b)
    t = Theory(causal=frozenset([ab]), facts=frozenset([Literal(ab, False)]))
    assert validate_theory(t).errors == [
        "contradictory unit facts on cause(alpha,beta)"]
    assert validate_theory(t._replace(causal=frozenset())).ok


X, AB = sym("a"), CausalAtom(sym("a"), sym("b"))


@pytest.mark.parametrize("t, atom", [
    (Theory(facts=frozenset([Literal(X, True)]),
            clauses=frozenset([Clause(frozenset([Literal(X, False)]))])),
     "a"),
    (Theory(causal=frozenset([AB]),
            clauses=frozenset([Clause(frozenset([Literal(AB, False)]))])),
     "cause(a,b)"),
], ids=["fact", "causal-atom"])
def test_validate_one_literal_clause_is_a_unit_fact(t, atom):
    # the clause prints as a unit fact, which the parser rejects alike
    message = "contradictory unit facts on %s" % atom
    assert validate_theory(t).errors == [message]
    with pytest.raises(ParseError) as err:
        parse_input(emit_theory(t))
    assert str(err.value).endswith(": " + message)


def test_validate_ontology_cycle_warns():
    t = Theory(ontology=frozenset([OntAtom(a, b), OntAtom(b, a)]))
    report = validate_theory(t)
    assert any("cycle" in w for w in report.warnings)
    t = Theory(ontology=frozenset([OntAtom(a, b), OntAtom(b, g), OntAtom(a, g)]))
    assert not any("cycle" in w for w in validate_theory(t).warnings)


CYCLE = ("ontology contains a cycle (cyclic IS-A is almost certainly a "
         "modeling error)")


def test_validation_builds_no_closure_rows(monkeypatch, diagram):
    def no_rows(*args, **kwargs):
        raise AssertionError("validation built closure rows")

    monkeypatch.setattr(closure, "_closure", no_rows)
    assert validate_theory(diagram) == ([], [])
    # the cycle warning keeps its place among the warnings
    t = Theory(causal=frozenset([CausalAtom(g, g)]),
               ontology=frozenset([OntAtom(a, b), OntAtom(b, a)]),
               declared=frozenset([sym("alpha", "x")]))
    assert validate_theory(t) == ([], [
        "self-cause: cause(gamma,gamma)", CYCLE,
        "name 'alpha' used both as a propositional constant and a predicate"])


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_a_deep_is_a_chain_validates_in_linear_time(closed):
    # ont(s0,s1). ... ont(s1999,s2000). cause(x,s0).: building the IS-A
    # closure for the cycle check took 2.1-3.2 s (2 CPUs, Python 3.11)
    s = [sym("s%d" % i) for i in range(2001)]
    links = {OntAtom(s[i], s[i + 1]) for i in range(2000)}
    if closed:
        links.add(OntAtom(s[2000], s[0]))
    t = Theory(causal=frozenset([CausalAtom(sym("x"), s[0])]),
               ontology=frozenset(links))
    start = time.perf_counter()
    report = validate_theory(t)
    assert time.perf_counter() - start < 0.5
    assert report == ([], [CYCLE] if closed else [])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
def test_cycle_warning_is_a_symbol_reaching_itself(pairs):
    # self-links and 2-cycles included; the reference: some symbol's IS-A
    # closure row holds its own bit
    symbols = [sym("q%d" % i) for i in range(8)]
    ontology = frozenset(OntAtom(symbols[i], symbols[j]) for i, j in pairs)
    reaches_itself = any(s.bit & row for s, row
                         in closure._closure(ontology)[0].items())
    warnings = validate_theory(Theory(ontology=ontology)).warnings
    assert (CYCLE in warnings) == reaches_itself


def test_validate_lifting_requires_kind_declarations():
    t = Theory(causal=frozenset([CausalAtom(sym("own", "tom", "book"), a)]))
    assert validate_theory(t, lifting=True).errors
    assert validate_theory(t, lifting=False).ok


def test_no_kind_declarations_have_one_shape():
    # a theory built in code, parsed from a fact file or read from a JSON
    # stage report holds the empty declarations, never None
    assert lifting.KindDeclarations is model.KindDeclarations
    assert Theory().kind_decls == KindDeclarations()
    for text in ("cause(a,b).", '{"explanations": []}'):
        assert parse_input(text).theory.kind_decls == KindDeclarations()


# -- one object per value ----------------------------------------------------

def _four_routes():
    """The symbol [at,x], the symbol y and the atom (y, [at,x], {y}) as the
    parser, sym(), lifting and a JSON stage report build them."""
    (parsed,) = parse_input("ecSet(y,[at,x],{y}).").stage.generated
    by_hand = ExplanationAtom(sym("y"), sym("at", "x"), (sym("y"),))
    (lifted,) = lift([ObjectOntAtom("x", "z")],
                     KindDeclarations(onekind=frozenset({"at"})))
    from_lift = ExplanationAtom(sym("y"), lifted.sub, (sym("y"),))
    (from_json,) = parse_input(json.dumps({"explanations": [
        {"from": "y", "to": "[at,x]", "conditions": ["y"]}]})).stage.generated
    return [parsed, by_hand, from_lift, from_json]


def test_symbols_and_atoms_of_every_route_agree():
    atoms = _four_routes()
    atoms += [copy.copy(atoms[1]), copy.deepcopy(atoms[2]),
              pickle.loads(pickle.dumps(atoms[3])),
              atoms[3]._replace(target=Symbol("at", ("x",)))]
    for atom in atoms:
        assert atom == atoms[0] and hash(atom) == hash(atoms[0])
        assert str(atom) == "ecSet(y,[at,x],{y})"
        assert atom.target is sym("at", "x")
        assert atom.source is sym("y")
        assert [*atom.conditions] == [atom.source]
        assert str(atom.target) == atom.target.render() == "[at,x]"
    assert len(set(atoms)) == 1


@pytest.mark.parametrize("value", [
    sym("at", "x"), sym("y"), CausalAtom(a, sym("at", "x")), OntAtom(a, b),
    Literal(CausalAtom(a, b), False), Literal(sym("at", "x"))])
def test_copies_and_pickles_are_the_same_object(value):
    for copied in (copy.copy(value), copy.deepcopy(value),
                   pickle.loads(pickle.dumps(value)),
                   pickle.loads(pickle.dumps(value, protocol=0))):
        assert copied is value


def test_equal_values_are_one_object_and_read_only():
    assert sym("at", "x") is Symbol("at", ("x",))
    assert CausalAtom(a, b) is CausalAtom(sym("alpha"), sym("beta"))
    assert Literal(a) is Literal(a, True) is Literal(a, False).negated()
    # text alone is not identity
    assert Symbol("[at,x]") is not sym("at", "x")
    assert Symbol("[at,x]") != sym("at", "x")
    assert str(Symbol("[at,x]")) == str(sym("at", "x"))
    assert repr(sym("at", "x")) == "Symbol(name='at', args=('x',))"
    assert repr(Literal(a, False)) == (
        "Literal(atom=Symbol(name='alpha', args=None), positive=False)")
    assert repr(ExplanationAtom(a, b, (a,))) == (
        "ExplanationAtom(source=%r, target=%r, mask=%r)" % (a, b, a.bit))
    for value, field in [(sym("at", "x"), "name"), (sym("y"), "_text"),
                         (CausalAtom(a, b), "cause"), (OntAtom(a, b), "sub"),
                         (Literal(a), "positive"),
                         (ExplanationAtom(a, b, (a,)), "source")]:
        with pytest.raises(AttributeError):
            setattr(value, field, sym("other"))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        sym("y").extra = 1


@pytest.mark.parametrize("value, change", [
    (ExplanationAtom(a, b, (a,)), {"mask": b.bit}),
    (Clause(frozenset({Literal(a)})), {"literals": frozenset()}),
    (ObjectOntAtom("x", "y"), {"super": "x"}),
    (KindDeclarations(onekind=frozenset({"p"})),
     {"allkind": frozenset({"p"})})])
def test_replace_checks_the_invariants_the_constructor_checks(value, change):
    with pytest.raises(ValueError):
        value._replace(**change)
    with pytest.raises(ValueError):
        type(value)._make(change.get(f, v)
                          for f, v in zip(value._fields, value))
    assert value._replace() == value


def test_unpickled_values_are_the_objects_of_a_fresh_process():
    # a pickle re-interns, so in a process with another hash seed the
    # unpickled atom holds that process's own symbol objects; the child
    # interns other symbols first, so its symbol numbers differ too; a
    # causal atom takes its number from the same numbering
    atom = ExplanationAtom(sym("at", "x"), b, (sym("at", "x"),))
    ca = CausalAtom(b, g)
    code = ("import pickle, sys; from causalexpl import model; "
            "from causalexpl.model import CausalAtom, sym; "
            "[sym('pad%%d' %% n) for n in range(%d)]; "
            "atom, ca = pickle.loads(sys.stdin.buffer.read()); "
            "assert atom.source is sym('at', 'x'); "
            "assert atom.conditions == {atom.source}; "
            "assert atom.mask == atom.source.bit != %d; "
            "assert atom.target is sym('beta'); "
            "assert hash(atom) == hash(tuple(atom)); "
            "assert {atom: 1}[pickle.loads(pickle.dumps(atom))] == 1; "
            "assert ca is CausalAtom(sym('beta'), sym('gamma')); "
            "assert ca.bit != %d; "
            "assert model._numbered[ca.bit.bit_length() - 1] is ca"
            % (max(atom.mask, ca.bit).bit_length(), atom.mask, ca.bit))
    for seed, protocol in (("1", 0), ("2", pickle.HIGHEST_PROTOCOL)):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps((atom, ca), protocol=protocol),
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.xfail(strict=True, reason="symbols and causal atoms take their "
                   "bits from one process-wide numbering, so a run's masks "
                   "are as wide as every name the process interned before")
def test_a_run_numbers_only_its_own_symbols():
    # chain_theory(2) has 30 symbols and 17 causal atoms; in a process that
    # interned 20,000 other symbols first, no mask of its run is wider
    code = ("from causalexpl.generate import generate; "
            "from causalexpl.model import sym; "
            "from conftest import chain_theory; "
            "[sym('pad%d' % n) for n in range(20000)]; "
            "print(max(a.mask.bit_length() "
            "for a in generate(chain_theory(2))))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 30 + 17
