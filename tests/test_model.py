"""Data-model behaviour: symbols, clauses, condition sets, validation."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalexpl.model import (CausalAtom, Clause, EmptyConditionSetError,
                              ExplanationAtom, Literal, OntAtom, Symbol,
                              Theory, canonical_conditions, canonicalize, sym,
                              symbol_universe, validate_theory)

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


def test_canonicalize_examples():
    assert canonicalize([d, a, a]) == (a, d)
    assert canonicalize([a]) == (a,)
    g1, b3 = sym("gamma1"), sym("beta3")
    assert canonicalize([g1, a, b3]) == (a, b3, g1)


@given(st.lists(st.sampled_from([a, b, g, d])))
def test_canonicalize_idempotent_and_order_insensitive(symbols):
    once = canonicalize(symbols)
    assert canonicalize(once) == once
    assert canonicalize(reversed(symbols)) == once


def test_empty_condition_set_rejected():
    with pytest.raises(EmptyConditionSetError):
        canonical_conditions([])


def test_explanation_atom_requires_source_membership():
    ExplanationAtom(a, d, (a, g))
    with pytest.raises(ValueError):
        ExplanationAtom(a, d, (g,))


def test_clause_tautology_and_empty():
    taut = Clause(frozenset([Literal(a, True), Literal(a, False)]))
    assert taut.is_tautology()
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


def test_validate_ontology_cycle_warns():
    t = Theory(ontology=frozenset([OntAtom(a, b), OntAtom(b, a)]))
    report = validate_theory(t)
    assert any("cycle" in w for w in report.warnings)
    t = Theory(ontology=frozenset([OntAtom(a, b), OntAtom(b, g), OntAtom(a, g)]))
    assert not any("cycle" in w for w in validate_theory(t).warnings)


def test_validate_lifting_requires_kind_declarations():
    t = Theory(causal=frozenset([CausalAtom(sym("own", "tom", "book"), a)]))
    assert validate_theory(t, lifting=True).errors
    assert validate_theory(t, lifting=False).ok
