"""Optimizer stage: one-way element-wise entailment, which also drops
strict supersets."""
import collections
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.closure import compute_closures
from causalexpl.generate import generate
from causalexpl.model import CausalAtom, ExplanationAtom, Theory, sym
from causalexpl.optimize import optimize
from conftest import atom_keys, chain_theory, impco_pairs, random_theory

optimize_module = importlib.import_module("causalexpl.optimize")


def _conds(*names):
    return tuple(sorted(sym(n) for n in names))


def _atoms(*triples):
    return frozenset(ExplanationAtom(s, t, c) for s, t, c in triples)


def _closures(*causal):
    """The closure index of a theory of cause(a,b) atoms only."""
    return compute_closures(Theory(causal=frozenset(
        CausalAtom(sym(a), sym(b)) for a, b in causal)))


def test_superset_pruning_keeps_smaller_path():
    a, d = sym("alpha"), sym("delta")
    atoms = _atoms((a, d, _conds("alpha", "gamma1")),
                   (a, d, _conds("alpha", "beta1", "gamma1")))
    assert atom_keys(optimize(atoms, _closures())) == {
        (a, d, _conds("alpha", "gamma1"))}


def test_superset_pruning_only_within_same_pair():
    atoms = _atoms((sym("a"), sym("x"), _conds("a")),
                   (sym("a"), sym("y"), _conds("a", "b")))
    assert optimize(atoms, _closures()) == atoms


def test_incomparable_sets_both_kept():
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    assert optimize(atoms, _closures()) == atoms


def test_one_way_domination_drops_stronger_set():
    # b implies c one-way: {a,b} is the stronger (less satisfiable) set.
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    c = _closures(("b", "c"))
    assert atom_keys(optimize(atoms, c)) == {
        (sym("a"), sym("x"), _conds("a", "c"))}


def test_mutual_domination_keeps_both():
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    c = _closures(("b", "c"), ("c", "b"))
    assert optimize(atoms, c) == atoms


def test_pruning_mini_theory_keeps_weaker_explanation(pruning_mini):
    c = compute_closures(pruning_mini)
    result = optimize(generate(pruning_mini), c)
    group = {cs for s, t, cs in atom_keys(result)
             if (s, t) == (sym("alpha"), sym("gamma"))}
    assert group == {_conds("alpha", "beta1")}


def test_diagram_optimal_sets(diagram):
    c = compute_closures(diagram)
    result = optimize(generate(diagram), c)
    group = {cs for s, t, cs in atom_keys(result)
             if (s, t) == (sym("alpha"), sym("delta"))}
    assert group == {_conds("alpha", "gamma1"), _conds("alpha", "gamma2"),
                     _conds("alpha", "beta3", "epsilon1"),
                     _conds("alpha", "beta3", "epsilon2")}


def test_empty_and_singleton():
    assert optimize(frozenset(), _closures()) == frozenset()
    single = _atoms((sym("a"), sym("x"), _conds("a")))
    assert atom_keys(optimize(single, _closures())) == atom_keys(single)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_optimize_properties(seed):
    t = random_theory(random.Random(seed))
    c = compute_closures(t)
    impco = impco_pairs(t)
    generated = generate(t)
    result = optimize(generated, c)

    # never invents atoms
    assert atom_keys(result) <= atom_keys(generated)
    # idempotent
    assert atom_keys(optimize(result, c)) == atom_keys(result)

    # antichain under subset inclusion, no surviving one-way domination
    groups = {}
    for atom in result:
        groups.setdefault((atom.source, atom.target), []).append(
            set(atom.conditions))
    def implies(src, dst):
        return all(any((e1, e2) in impco for e1 in src - dst)
                   for e2 in dst - src)
    for sets in groups.values():
        for x in sets:
            for y in sets:
                if x is y:
                    continue
                assert not x < y and not y < x
                assert not (implies(x, y) and not implies(y, x))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_large_group_path_matches_the_scan(seed):
    # groups above _SCAN_LIMIT read their siblings within reach off per-bit
    # bitsets; forcing either path on every group gives the same atoms
    t = random_theory(random.Random(seed))
    c = compute_closures(t)
    generated = generate(t, c)
    results = []
    for limit in (0, len(generated)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize_module, "_SCAN_LIMIT", limit)
            results.append(optimize(generated, c))
    assert results[0] == results[1]


def test_chain_groups_take_both_paths(monkeypatch):
    t = chain_theory(4)
    c = compute_closures(t)
    generated = generate(t, c)
    sizes = collections.Counter(atom[:2] for atom in generated).values()
    assert min(sizes) <= optimize_module._SCAN_LIMIT < max(sizes)
    expected = optimize(generated, c)
    monkeypatch.setattr(optimize_module, "_SCAN_LIMIT", 0)
    assert optimize(generated, c) == expected
