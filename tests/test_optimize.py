"""Optimizer stage: subset pruning and element-wise entailment subsumption."""
import collections
import importlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.closure import compute_closures
from causalexpl.generate import generate
from causalexpl.model import CausalAtom, ExplanationAtom, Theory, sym
from causalexpl.optimize import (_bits, _Group, _pairs,
                                 entailment_subsumption, optimize,
                                 prune_supersets)
from conftest import atom_keys, chain_theory, random_theory


def _conds(*names):
    return tuple(sorted(sym(n) for n in names))


def _atoms(*triples):
    return frozenset(ExplanationAtom(s, t, c) for s, t, c in triples)


def _closures(*causal):
    """The closure index of a theory of cause(a,b) atoms only."""
    return compute_closures(Theory(causal=frozenset(
        CausalAtom(sym(a), sym(b)) for a, b in causal)))


def _prune_supersets(atoms):
    """The atoms the per-group superset kernel keeps, over all groups."""
    return frozenset(g.atoms[n] for g in map(_Group, _pairs(atoms))
                     for n in _bits(prune_supersets(g)))


def _entailment_subsumption(atoms, c):
    """The atoms the per-group entailment kernel keeps when every atom of
    a group is a candidate."""
    return frozenset(
        g.atoms[n] for g in map(_Group, _pairs(atoms))
        for n in _bits(entailment_subsumption(
            g, (1 << len(g.atoms)) - 1, c.impco_succ)))


def test_superset_pruning_keeps_smaller_path(diagram):
    a, d = sym("alpha"), sym("delta")
    atoms = _atoms((a, d, _conds("alpha", "gamma1")),
                   (a, d, _conds("alpha", "beta1", "gamma1")))
    assert atom_keys(_prune_supersets(atoms)) == {
        (a, d, _conds("alpha", "gamma1"))}


def test_superset_pruning_only_within_same_pair():
    atoms = _atoms((sym("a"), sym("x"), _conds("a")),
                   (sym("a"), sym("y"), _conds("a", "b")))
    assert _prune_supersets(atoms) == atoms


def test_incomparable_sets_both_kept():
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    assert _prune_supersets(atoms) == atoms
    assert atom_keys(_entailment_subsumption(atoms, _closures())) == \
        atom_keys(atoms)


def test_one_way_domination_drops_stronger_set():
    # b implies c one-way: {a,b} is the stronger (less satisfiable) set.
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    c = _closures(("b", "c"))
    assert atom_keys(_entailment_subsumption(atoms, c)) == {
        (sym("a"), sym("x"), _conds("a", "c"))}


def test_mutual_domination_keeps_both():
    atoms = _atoms((sym("a"), sym("x"), _conds("a", "b")),
                   (sym("a"), sym("x"), _conds("a", "c")))
    c = _closures(("b", "c"), ("c", "b"))
    assert atom_keys(_entailment_subsumption(atoms, c)) == atom_keys(atoms)


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


def test_optimize_interns_each_group_once(monkeypatch):
    optimize_module = importlib.import_module("causalexpl.optimize")
    t = chain_theory(1)
    c = compute_closures(t)
    generated = generate(t, c)
    built = []

    class CountingGroup(optimize_module._Group):
        def __init__(self, atoms):
            built.append((atoms[0].source, atoms[0].target))
            super().__init__(atoms)

    monkeypatch.setattr(optimize_module, "_Group", CountingGroup)
    optimize(generated, c)
    sizes = collections.Counter((a.source, a.target) for a in generated)
    # a lone atom has no sibling to prune against, so its group is not
    # interned; the test needs both kinds of group
    assert 1 in sizes.values() and max(sizes.values()) > 1
    assert sorted(built) == sorted(pair for pair, n in sizes.items() if n > 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_optimize_properties(seed):
    t = random_theory(random.Random(seed))
    c = compute_closures(t)
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
        return all(any((e1, e2) in c.impco for e1 in src - dst)
                   for e2 in dst - src)
    for sets in groups.values():
        for x in sets:
            for y in sets:
                if x is y:
                    continue
                assert not x < y and not y < x
                assert not (implies(x, y) and not implies(y, x))
