"""Closure relations: transitive IS-A and the implication closure."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl import model
from causalexpl.closure import compute_closures, impco_closure, ont_closure
from causalexpl.model import CausalAtom, OntAtom, Symbol, Theory, sym, symbol_universe
from conftest import impco_pairs, random_theory


def _bfs_pairs(edges):
    """Independent reachability check (breadth-first per node)."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    out = set()
    for start in succ:
        seen, queue = set(), sorted(succ[start], key=str)
        while queue:
            node = queue.pop(0)
            if node in seen:
                continue
            seen.add(node)
            queue.extend(sorted(succ.get(node, ()), key=str))
        out.update((start, node) for node in seen)
    return out


def test_ontt_diagram_spot_checks(diagram):
    ontt = ont_closure(diagram.ontology)
    beta1, beta2 = sym("beta1"), sym("beta2")
    assert (beta1, beta2) in ontt                 # via beta
    assert (sym("gamma2"), sym("gamma3")) in ontt
    assert (beta2, beta1) not in ontt
    assert (sym("gamma2"), sym("epsilon3")) not in ontt


def test_impco_covers_causal_and_ontological_edges(diagram):
    impco = impco_pairs(diagram)
    assert (sym("alpha"), sym("beta")) in impco     # causal edge
    assert (sym("beta1"), sym("beta")) in impco     # ontology edge
    assert (sym("alpha"), sym("gamma")) in impco    # mixed path
    assert (sym("gamma1"), sym("delta")) in impco


def test_impco_reflexive_on_symbol_e(diagram):
    _, symbol_e = symbol_universe(diagram)
    impco = impco_pairs(diagram)
    for s in symbol_e:
        assert (s, s) in impco


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closures_match_bfs_reachability(seed):
    t = random_theory(random.Random(seed), acyclic=False)
    _, symbol_e = symbol_universe(t)
    edges = [(ca.cause, ca.effect) for ca in t.causal]
    edges += [(oa.sub, oa.super) for oa in t.ontology]

    ontt = _bfs_pairs((oa.sub, oa.super) for oa in t.ontology)
    assert set(ont_closure(t.ontology)) == ontt
    expected = _bfs_pairs(edges) | {(s, s) for s in symbol_e}
    assert set(impco_closure(t.causal, t.ontology, symbol_e)) == expected

    # the closure index holds the same relations as int rows keyed by bits
    c = compute_closures(t)
    for pairs, (above, below) in ((ontt, c[:2]), (expected, c[2:])):
        assert _mask_pairs(above) == pairs
        assert {(a, b) for b, a in _mask_pairs(below)} == pairs
        for rows in (above, below):
            assert all(type(bit) is int and bit.bit_count() == 1
                       and type(row) is int for bit, row in rows.items())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_impco_transitive(seed):
    t = random_theory(random.Random(seed), acyclic=False)
    succ = {}
    for i, j in impco_pairs(t):
        succ.setdefault(i, set()).add(j)
    for i, js in succ.items():
        for j in js:
            assert succ.get(j, set()) <= js, "impco not transitive"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closure_monotone_under_added_atoms(seed):
    rng = random.Random(seed)
    t = random_theory(rng, acyclic=False)
    extra_c = CausalAtom(Symbol("x_new"), Symbol("s0"))
    extra_o = OntAtom(Symbol("y_new"), Symbol("s1"))
    bigger = Theory(causal=t.causal | {extra_c},
                    ontology=t.ontology | {extra_o})
    assert ont_closure(t.ontology) <= ont_closure(bigger.ontology)
    assert impco_pairs(t) <= impco_pairs(bigger)


def _mask_pairs(rows):
    """Mask rows (bit -> mask) as (row symbol, member symbol) pairs."""
    return {(model._numbered[bit.bit_length() - 1], member)
            for bit, mask in rows.items()
            for member in model.members(mask)}


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_rows_hold_exactly_the_pairs(seed, acyclic):
    t = random_theory(random.Random(seed), acyclic=acyclic)
    c = compute_closures(t)
    ontt, impco = ont_closure(t.ontology), impco_pairs(t)
    assert _mask_pairs(c.ontt_above) == ontt
    assert {(a, b) for b, a in _mask_pairs(c.ontt_below)} == ontt
    assert _mask_pairs(c.impco_above) == impco
    assert {(a, b) for b, a in _mask_pairs(c.impco_below)} == impco
    # a symbol with no pair has no row
    for rows in c:
        assert all(rows.values())
