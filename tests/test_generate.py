"""Generation stage: initial rules, seeding precedence, transitive gathering."""
import importlib
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.closure import compute_closures
from causalexpl.generate import (ecinit_full, gather_transitive, generate,
                                 reduce_conditions)
from causalexpl.model import (CausalAtom, ExplanationAtom, OntAtom, Theory,
                             members, sym)
from causalexpl.optimize import optimize
from conftest import atom_keys, impco_pairs, chain_theory, random_theory


def _conds(*names):
    return tuple(sorted(sym(n) for n in names))


def test_single_cause_yields_singleton_atom():
    t = Theory(causal=frozenset([CausalAtom(sym("a"), sym("b"))]))
    atoms = generate(t)
    assert atom_keys(atoms) == {(sym("a"), sym("b"), _conds("a"))}


def _rules(steps):
    """The initial rules (k, j, e) the steps encode, a step's bit 0 being
    e = k; fails if a step is listed twice or its bit is k's own or more
    than one symbol's."""
    rules = []
    for k, rows in steps.items():
        for j, bit in rows:
            assert bit != k.bit and bit & (bit - 1) == 0
            rules.append((k, j, members(bit)[0] if bit else k))
    assert len(rules) == len(set(rules))
    return set(rules)


def _seed_sets(seeds):
    """The seeds as (i, j) -> set of condition frozensets; fails if a pair
    lists a mask twice."""
    for masks in seeds.values():
        assert len(masks) == len(set(masks))
    return {pair: {frozenset(members(mask)) for mask in masks}
            for pair, masks in seeds.items()}


def test_initial_rules_on_diagram(diagram):
    seeds, steps = ecinit_full(diagram, compute_closures(diagram))
    rules = _rules(steps)
    alpha, beta2, gamma1 = sym("alpha"), sym("beta2"), sym("gamma1")
    # direct cause
    assert (alpha, sym("beta"), alpha) in rules
    # effect generalisation: cause(alpha,beta), ont(beta,beta2)
    assert (alpha, beta2, alpha) in rules
    # specialisation without implication carries the specialised symbol
    assert (beta2, gamma1, gamma1) in rules
    assert (beta2, gamma1, beta2) not in rules
    assert _seed_sets(seeds)[(beta2, gamma1)] == {frozenset([beta2, gamma1])}


def _optimal_sets(t, source, target):
    c = compute_closures(t)
    return {cs for s, t, cs in atom_keys(optimize(generate(t, c), c))
            if (s, t) == (sym(source), sym(target))}


def test_double_ontology_candidates_on_diagram(diagram):
    assert _optimal_sets(diagram, "beta2", "gamma3") == {
        _conds("beta2", "gamma2")}
    assert _optimal_sets(diagram, "beta3", "epsilon3") == {
        _conds("beta3", "epsilon1"), _conds("beta3", "epsilon2")}


def test_double_ontology_dominance_pruning():
    # e1 IS-A e2, both specialise the effect's sub-concepts: only the
    # weaker witness e2 is optimal for the (i, j) pair reached through both.
    t = Theory(causal=frozenset([CausalAtom(sym("i"), sym("x"))]),
               ontology=frozenset([OntAtom(sym("e1"), sym("x")),
                                   OntAtom(sym("e2"), sym("x")),
                                   OntAtom(sym("e1"), sym("e2")),
                                   OntAtom(sym("e1"), sym("j")),
                                   OntAtom(sym("e2"), sym("j"))]))
    assert _optimal_sets(t, "i", "j") == {_conds("e2", "i")}


def _parent_initial_rules(t, c):
    """The rules as first written: three walks over cause x sub x super."""
    impco = impco_pairs(t)

    def supers(s):
        return members(c.ontt_above.get(s, 0))

    def subs(s):
        return members(c.ontt_below.get(s, 0))

    base = set()    # (source, target, extra) triples
    for ca in t.causal:
        i, x = ca.cause, ca.effect
        base.add((i, x, i))
        for j in subs(x):
            base.add((i, j, i if (i, j) in impco else j))
        for j in supers(x):
            base.add((i, j, i))
        for e in subs(x):
            if (i, e) in impco:
                for j in supers(e):
                    base.add((i, j, i))
    full = set(base)
    for ca in t.causal:
        i, x = ca.cause, ca.effect
        for e in subs(x):
            if (i, e) not in impco:
                full.update((i, j, e) for j in supers(e))
    return full


def _seeded_by_precedence(full):
    """Per (source, target): {i} beats {i,j}, which beats the {i,e}
    witnesses."""
    by_pair = defaultdict(set)
    for i, j, e in full:
        by_pair[(i, j)].add(e)
    seeds = {}
    for (i, j), extras in by_pair.items():
        if i in extras:
            seeds[(i, j)] = {frozenset([i])}
        elif j in extras:
            seeds[(i, j)] = {frozenset([i, j])}
        else:
            seeds[(i, j)] = {frozenset([i, e]) for e in extras}
    return seeds


def _assert_initial_rules_match_parent(t):
    c = compute_closures(t)
    seeds, steps = ecinit_full(t, c)
    full = _parent_initial_rules(t, c)
    assert _rules(steps) == full
    assert _seed_sets(seeds) == _seeded_by_precedence(full)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.sampled_from(["none", "self-cause", "ontology back-edge"]))
def test_initial_rules_match_the_triple_walk(seed, acyclic, extra):
    rng = random.Random(seed)
    t = random_theory(rng, acyclic=acyclic)
    if extra == "self-cause":
        a = rng.choice(sorted({ca.cause for ca in t.causal} | {sym("s0")},
                              key=str))
        t = Theory(causal=t.causal | {CausalAtom(a, a)}, ontology=t.ontology)
    elif extra == "ontology back-edge" and t.ontology:
        o = rng.choice(sorted(t.ontology, key=str))
        t = Theory(causal=t.causal,
                   ontology=t.ontology | {OntAtom(o.super, o.sub)})
    _assert_initial_rules_match_parent(t)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_initial_rules_match_the_triple_walk_on_chains(k):
    _assert_initial_rules_match_parent(chain_theory(k))


def test_initial_rules_match_the_triple_walk_on_diagram(diagram):
    _assert_initial_rules_match_parent(diagram)


def _seeds_of(causal, ontology):
    t = Theory(causal=frozenset(CausalAtom(sym(a), sym(b)) for a, b in causal),
               ontology=frozenset(OntAtom(sym(a), sym(b)) for a, b in ontology))
    return {(str(i), str(j)): {",".join(sorted(map(str, s))) for s in sets}
            for (i, j), sets in _seed_sets(ecinit_full(
                t, compute_closures(t))[0]).items()}


def test_seed_precedence():
    # {i} beats {i,e}: (i, x) is explained by i and through the witness e
    assert _seeds_of([("i", "x")], [("e", "x")]) == {
        ("i", "x"): {"i"}, ("i", "e"): {"e,i"}}
    # {i,j} beats {i,e}: (i, j) has the witnesses j and e, below j
    assert _seeds_of([("i", "x")], [("j", "x"), ("e", "j")]) == {
        ("i", "x"): {"i"}, ("i", "j"): {"i,j"}, ("i", "e"): {"e,i"}}
    # every witness is kept: j is above e and f, and no sub-concept of x
    assert _seeds_of([("i", "x")], [("e", "x"), ("f", "x"), ("e", "j"),
                                    ("f", "j")]) == {
        ("i", "x"): {"i"}, ("i", "e"): {"e,i"}, ("i", "f"): {"f,i"},
        ("i", "j"): {"e,i", "f,i"}}
    assert ecinit_full(Theory(), compute_closures(Theory())) == ({}, {})


def test_gathering_base_case_is_identity():
    a, b = sym("a"), sym("b")
    t = Theory(causal=frozenset([CausalAtom(a, b)]))
    seeds, steps = ecinit_full(t, compute_closures(t))
    assert seeds == {(a, b): (a.bit,)}
    assert gather_transitive(seeds, steps) == {ExplanationAtom(a, b, [a])}


def test_diagram_gathers_both_documented_paths(diagram):
    keys = atom_keys(generate(diagram))
    assert (sym("alpha"), sym("delta"), _conds("alpha", "gamma1")) in keys
    # the longer path's set is a superset of {alpha,gamma1}: not kept
    assert (sym("alpha"), sym("delta"),
            _conds("alpha", "beta1", "gamma1")) not in keys


def test_diagram_generation_covers_all_optimal_sets(diagram):
    keys = atom_keys(generate(diagram))
    for conds in (_conds("alpha", "gamma1"), _conds("alpha", "gamma2"),
                  _conds("alpha", "beta3", "epsilon1"),
                  _conds("alpha", "beta3", "epsilon2")):
        assert (sym("alpha"), sym("delta"), conds) in keys


def test_sibling_specialisation_not_explained():
    t = Theory(causal=frozenset([CausalAtom(sym("x"), sym("loud_bell"))]),
               ontology=frozenset([OntAtom(sym("loud_bell"), sym("bell")),
                                   OntAtom(sym("soft_bell"), sym("bell"))]))
    atoms = generate(t)
    assert not any(a.target == sym("soft_bell") for a in atoms)


def test_reduce_conditions_drops_implied_member():
    # b impco-implies c, so {a,b,c} also yields {a,b}; a itself is kept.
    a, b, ccc = sym("a"), sym("b"), sym("c")
    c = compute_closures(Theory(causal=frozenset([CausalAtom(b, ccc)])))
    from causalexpl.model import ExplanationAtom
    atoms = frozenset([ExplanationAtom(a, sym("t"), _conds("a", "b", "c"))])
    reduced = atom_keys(reduce_conditions(atoms, c))
    assert (a, sym("t"), _conds("a", "b")) in reduced
    assert (a, sym("t"), _conds("a", "b", "c")) in reduced


def test_reduce_conditions_never_removes_the_explaining_symbol():
    a, b = sym("a"), sym("b")
    c = compute_closures(Theory(causal=frozenset([CausalAtom(b, a)])))
    from causalexpl.model import ExplanationAtom
    atoms = frozenset([ExplanationAtom(a, sym("t"), _conds("a", "b"))])
    assert atom_keys(reduce_conditions(atoms, c)) == {
        (a, sym("t"), _conds("a", "b"))}


def test_generation_invariants_on_diagram(diagram):
    from causalexpl.model import symbol_universe
    _, symbol_e = symbol_universe(diagram)
    for atom in generate(diagram):
        assert atom.source in atom.conditions
        assert set(atom.conditions) <= set(symbol_e)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_generation_deterministic(seed):
    t = random_theory(random.Random(seed))
    assert generate(t) == generate(t)


def _saturate(seeds, steps):
    """Every (i, j, conditions) the gathering rule derives from the seeds,
    with no dominance: the unions saturated without the not-ecSet
    suppression."""
    state = {(i, j, conds) for (i, j), sets in _seed_sets(seeds).items()
             for conds in sets}
    changed = True
    while changed:
        changed = False
        for (i, k, conds) in list(state):
            for j, bit in steps.get(k, ()):
                new = conds | frozenset(members(bit))
                key = (i, j, new)
                if key not in state:
                    state.add(key)
                    changed = True
    return state


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gathering_guard_cannot_change_optimizer_answer(seed):
    """The already-derived guard only suppresses supersets of existing sets."""
    t = random_theory(random.Random(seed))
    c = compute_closures(t)
    seeds, steps = ecinit_full(t, c)
    guarded = reduce_conditions(gather_transitive(seeds, steps), c)
    unguarded = reduce_conditions(frozenset(
        ExplanationAtom(i, j, cs) for i, j, cs in _saturate(seeds, steps)), c)

    assert atom_keys(optimize(guarded, c)) == \
        atom_keys(optimize(unguarded, c))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_gathering_keeps_the_minimal_sets_of_the_saturation(seed, acyclic):
    """Per (source, target, members on an impco cycle), gathering keeps
    exactly the subset-minimal sets of the plain saturation."""
    t = random_theory(random.Random(seed), acyclic=acyclic)
    c = compute_closures(t)
    impco = impco_pairs(t)
    seeds, steps = ecinit_full(t, c)
    cyclic = frozenset(a for a, b in impco if a != b and (b, a) in impco)
    buckets = defaultdict(list)
    for i, j, conds in _saturate(seeds, steps):
        buckets[(i, j, conds & cyclic)].append(conds)
    minimal = {(i, j, x) for (i, j, _), sets in buckets.items()
               for x in sets if not any(y < x for y in sets)}
    gathered = gather_transitive(seeds, steps, sum(s.bit for s in cyclic))
    assert {(a.source, a.target, a.conditions) for a in gathered} == minimal


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gathered_sets_form_an_antichain(seed):
    t = random_theory(random.Random(seed))
    c = compute_closures(t)
    groups = {}
    for atom in gather_transitive(*ecinit_full(t, c)):
        groups.setdefault((atom.source, atom.target), []).append(
            atom.conditions)
    for sets in groups.values():
        for x in sets:
            assert not any(y < x for y in sets)


def test_chain_of_four_diagrams_sizes(monkeypatch):
    generate_module = importlib.import_module("causalexpl.generate")
    gathered = []

    def counting_gather(*args):
        gathered.append(gather_transitive(*args))
        return gathered[-1]

    monkeypatch.setattr(generate_module, "gather_transitive", counting_gather)
    t = chain_theory(4)
    optimal = optimize(generate(t), compute_closures(t))
    assert len(gathered[0]) == 9535
    assert len(optimal) == 9130
