"""Closure relations: transitive IS-A and the implication closure."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.closure import compute_closures, impco_closure, ont_closure
from causalexpl.model import CausalAtom, OntAtom, Symbol, Theory, sym, symbol_universe
from conftest import random_theory


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
    c = compute_closures(diagram)
    beta1, beta2 = sym("beta1"), sym("beta2")
    assert (beta1, beta2) in c.ontt                 # via beta
    assert (sym("gamma2"), sym("gamma3")) in c.ontt
    assert (beta2, beta1) not in c.ontt
    assert (sym("gamma2"), sym("epsilon3")) not in c.ontt


def test_impco_covers_causal_and_ontological_edges(diagram):
    c = compute_closures(diagram)
    assert (sym("alpha"), sym("beta")) in c.impco     # causal edge
    assert (sym("beta1"), sym("beta")) in c.impco     # ontology edge
    assert (sym("alpha"), sym("gamma")) in c.impco    # mixed path
    assert (sym("gamma1"), sym("delta")) in c.impco


def test_impco_reflexive_on_symbol_e(diagram):
    _, symbol_e = symbol_universe(diagram)
    c = compute_closures(diagram)
    for s in symbol_e:
        assert (s, s) in c.impco


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closures_match_bfs_reachability(seed):
    t = random_theory(random.Random(seed), acyclic=False)
    _, symbol_e = symbol_universe(t)
    edges = [(ca.cause, ca.effect) for ca in t.causal]
    edges += [(oa.sub, oa.super) for oa in t.ontology]

    assert set(ont_closure(t.ontology)) == _bfs_pairs(
        (oa.sub, oa.super) for oa in t.ontology)
    expected = _bfs_pairs(edges) | {(s, s) for s in symbol_e}
    assert set(impco_closure(t.causal, t.ontology, symbol_e)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_impco_transitive(seed):
    t = random_theory(random.Random(seed), acyclic=False)
    c = compute_closures(t)
    succ = {}
    for i, j in c.impco:
        succ.setdefault(i, set()).add(j)
    for i, js in succ.items():
        for j in js:
            assert succ.get(j, set()) <= js, "impco not transitive"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closure_monotone_under_added_atoms(seed):
    rng = random.Random(seed)
    t = random_theory(rng, acyclic=False)
    before = compute_closures(t)
    extra_c = CausalAtom(Symbol("x_new"), Symbol("s0"))
    extra_o = OntAtom(Symbol("y_new"), Symbol("s1"))
    bigger = Theory(causal=t.causal | {extra_c},
                    ontology=t.ontology | {extra_o})
    after = compute_closures(bigger)
    assert before.ontt <= after.ontt
    assert before.impco <= after.impco


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rows_hold_exactly_the_pairs(seed):
    c = compute_closures(random_theory(random.Random(seed), acyclic=False))
    for pairs, fwd, bwd in ((c.ontt, c.ontt_supers, c.ontt_subs),
                            (c.impco, c.impco_succ, c.impco_pred)):
        assert {(a, b) for a, row in fwd.items() for b in row} == pairs
        assert {(a, b) for b, row in bwd.items() for a in row} == pairs
        assert all(row for row in list(fwd.values()) + list(bwd.values()))
    for rows, masks in ((c.impco_succ, c.impco_above),
                        (c.impco_pred, c.impco_below)):
        assert masks == {s.bit: sum(t.bit for t in row)
                         for s, row in rows.items()}
