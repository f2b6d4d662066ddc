"""Optimizer stage: subset pruning and element-wise entailment subsumption."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.closure import compute_closures
from causalexpl.generate import generate
from causalexpl.model import ExplanationAtom, sym
from causalexpl.optimize import (entailment_subsumption, optimize,
                                 prune_supersets)
from conftest import atom_keys, random_theory


def _conds(*names):
    return tuple(sorted(sym(n) for n in names))


def _atoms(*triples):
    return frozenset(ExplanationAtom(s, t, c) for s, t, c in triples)


def test_superset_pruning_keeps_smaller_path(diagram):
    a, d = sym("alpha"), sym("delta")
    atoms = _atoms((a, d, _conds("alpha", "gamma1")),
                   (a, d, _conds("alpha", "beta1", "gamma1")))
    assert atom_keys(prune_supersets(atoms)) == {
        (a, d, _conds("alpha", "gamma1"))}


def test_superset_pruning_only_within_same_pair():
    atoms = _atoms((sym("a"), sym("x"), _conds("a")),
                   (sym("a"), sym("y"), _conds("a", "b")))
    assert prune_supersets(atoms) == atoms


def test_incomparable_sets_both_kept():
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    assert prune_supersets(atoms) == atoms
    assert atom_keys(entailment_subsumption(atoms, frozenset())) == \
        atom_keys(atoms)


def test_one_way_domination_drops_stronger_set():
    # b implies c one-way: {a,b} is the stronger (less satisfiable) set.
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    impco = frozenset([(sym("b"), sym("c"))])
    assert atom_keys(entailment_subsumption(atoms, impco)) == {
        (sym("a"), sym("x"), _conds("a", "c"))}


def test_mutual_domination_keeps_both():
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    impco = frozenset([(sym("b"), sym("c")), (sym("c"), sym("b"))])
    assert atom_keys(entailment_subsumption(atoms, impco)) == atom_keys(atoms)


def test_pruning_mini_theory_keeps_weaker_explanation(pruning_mini):
    c = compute_closures(pruning_mini)
    result = optimize(generate(pruning_mini), c.impco)
    group = {a.conditions for a in result
             if (a.source, a.target) == (sym("alpha"), sym("gamma"))}
    assert group == {_conds("alpha", "beta1")}


def test_diagram_optimal_sets(diagram):
    c = compute_closures(diagram)
    result = optimize(generate(diagram), c.impco)
    group = {a.conditions for a in result
             if (a.source, a.target) == (sym("alpha"), sym("delta"))}
    assert group == {_conds("alpha", "gamma1"), _conds("alpha", "gamma2"),
                     _conds("alpha", "beta3", "epsilon1"),
                     _conds("alpha", "beta3", "epsilon2")}


def test_empty_and_singleton():
    assert optimize(frozenset(), frozenset()) == frozenset()
    single = _atoms((sym("a"), sym("x"), _conds("a")))
    assert atom_keys(optimize(single, frozenset())) == atom_keys(single)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_optimize_properties(seed):
    t = random_theory(random.Random(seed))
    c = compute_closures(t)
    generated = generate(t)
    result = optimize(generated, c.impco)

    # never invents atoms
    assert atom_keys(result) <= atom_keys(generated)
    # idempotent
    assert atom_keys(optimize(result, c.impco)) == atom_keys(result)

    # antichain under subset inclusion, no surviving one-way domination
    groups = {}
    for atom in result:
        groups.setdefault((atom.source, atom.target), []).append(
            set(atom.conditions))
    def implies(src, dst):
        return all(any((e1, e2) in c.impco for e1 in src - dst)
                   for e2 in dst - src)
    for sets in groups.values():
        for x in sets:
            for y in sets:
                if x is y:
                    continue
                assert not x < y and not y < x
                assert not (implies(x, y) and not implies(y, x))
