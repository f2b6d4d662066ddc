"""Closure relations: transitive IS-A and the implication closure."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.closure import compute_closures
from causalexpl.model import CausalAtom, OntAtom, Symbol, Theory, sym, symbol_universe
from causalexpl.oracle import row_pairs
from conftest import impco_pairs, random_theory


def ontt_pairs(t: Theory):
    """t's transitive IS-A as (sub-concept, super-concept) pairs."""
    return row_pairs(compute_closures(t).ontt_above)


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
    ontt = ontt_pairs(diagram)
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


def _bfs_relations(t: Theory):
    """t's IS-A pairs and its impco pairs, reflexive on symbolE, found by
    breadth-first search."""
    ont_edges = [(oa.sub, oa.super) for oa in t.ontology]
    edges = ont_edges + [(ca.cause, ca.effect) for ca in t.causal]
    return (_bfs_pairs(ont_edges),
            _bfs_pairs(edges) | {(s, s) for s in symbol_universe(t)[1]})


def _assert_rows_hold(c, ontt, impco):
    """The closure index c holds exactly these pairs, above and below."""
    for pairs, (above, below) in ((ontt, c[:2]), (impco, c[2:])):
        assert row_pairs(above) == pairs
        assert {(a, b) for b, a in row_pairs(below)} == pairs


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_closures_match_bfs_reachability(seed):
    t = random_theory(random.Random(seed), acyclic=False)
    # the closure index holds the relations as int rows keyed by symbols
    c = compute_closures(t)
    _assert_rows_hold(c, *_bfs_relations(t))
    for rows in c:
        assert all(type(s) is Symbol and type(row) is int
                   for s, row in rows.items())


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
    assert ontt_pairs(t) <= ontt_pairs(bigger)
    assert impco_pairs(t) <= impco_pairs(bigger)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_rows_hold_exactly_the_pairs(seed, acyclic):
    t = random_theory(random.Random(seed), acyclic=acyclic)
    c = compute_closures(t)
    _assert_rows_hold(c, *_bfs_relations(t))
    # a symbol with no pair has no row
    for rows in c:
        assert all(rows.values())


def test_row_keys_have_distinct_hashes():
    # an int key 1 << n hashes as 1 << (n % 61) on 64-bit CPython, so keys
    # by bit would share at most 61 hashes among a chain's 200 rows
    chain = [Symbol("hash_s%d" % i) for i in range(201)]
    t = Theory(causal=frozenset([CausalAtom(Symbol("hash_x"), chain[0])]),
               ontology=frozenset(OntAtom(a, b)
                                  for a, b in zip(chain, chain[1:])))
    for rows in compute_closures(t):
        assert len(rows) >= 200
        assert len({hash(key) for key in rows}) == len(rows)
