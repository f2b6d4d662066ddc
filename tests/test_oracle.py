"""Brute-force reference derivation and its equivalence with the pipeline."""
import random
from graphlib import TopologicalSorter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalexpl.cli import RunConfig, run_pipeline
from causalexpl.closure import compute_closures
from causalexpl.generate import generate
from causalexpl.lifting import ObjectOntAtom, apply_restrictions, lift
from causalexpl.model import (CausalAtom, KindDeclarations, OntAtom, Theory,
                              sym, symbol_universe)
from causalexpl.optimize import optimize
from causalexpl.oracle import OracleBoundError, derive_all, optimal_subset
from causalexpl.parser import StageFacts
from conftest import atom_keys, impco_pairs, random_theory


def _conds(*names):
    return tuple(sorted(sym(n) for n in names))


def test_single_cause_includes_raw_and_reduced_atom():
    t = Theory(causal=frozenset([CausalAtom(sym("a"), sym("b"))]))
    keys = atom_keys(derive_all(t))
    assert (sym("a"), sym("b"), _conds("a", "b")) in keys
    assert (sym("a"), sym("b"), _conds("a")) in keys


def test_empty_theory():
    assert derive_all(Theory()) == frozenset()


def test_bound_guard():
    causal = frozenset(CausalAtom(sym("s%d" % i), sym("t%d" % i))
                       for i in range(6))
    with pytest.raises(OracleBoundError):
        derive_all(Theory(causal=causal), max_symbols=10)


def test_diagram_derivation_contains_documented_path(diagram):
    keys = atom_keys(derive_all(diagram, max_symbols=20))
    assert (sym("alpha"), sym("delta"), _conds("alpha", "gamma1")) in keys


def test_diagram_oracle_optimal_matches_figure(diagram):
    impco = impco_pairs(diagram)
    result = optimal_subset(derive_all(diagram, max_symbols=20), impco)
    group = {cs for s, t, cs in atom_keys(result)
             if (s, t) == (sym("alpha"), sym("delta"))}
    assert group == {_conds("alpha", "gamma1"), _conds("alpha", "gamma2"),
                     _conds("alpha", "beta3", "epsilon1"),
                     _conds("alpha", "beta3", "epsilon2")}


def test_pruning_mini_oracle(pruning_mini):
    impco = impco_pairs(pruning_mini)
    result = optimal_subset(derive_all(pruning_mini), impco)
    group = {cs for s, t, cs in atom_keys(result)
             if (s, t) == (sym("alpha"), sym("gamma"))}
    assert group == {_conds("alpha", "beta1")}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_derive_all_monotone(seed):
    rng = random.Random(seed)
    t = random_theory(rng, max_symbols=5, max_causal=4, max_ont=4)
    before = atom_keys(derive_all(t))
    bigger = Theory(causal=t.causal | {CausalAtom(sym("s0"), sym("zz_new"))},
                    ontology=t.ontology)
    assert before <= atom_keys(derive_all(bigger))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pipeline_matches_oracle_on_acyclic_theories(seed):
    t = random_theory(random.Random(seed))
    c = compute_closures(t)
    impco = impco_pairs(t)
    pipeline = atom_keys(optimize(generate(t), c))
    oracle = atom_keys(optimal_subset(derive_all(t), impco))
    assert pipeline == oracle


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_generation_sound_and_optimal_complete_vs_oracle(seed):
    """Every generated atom is oracle-derivable; every oracle atom is
    dominated-or-matched by some generated sibling."""
    t = random_theory(random.Random(seed))
    impco = impco_pairs(t)
    generated = atom_keys(generate(t))
    derivable = atom_keys(derive_all(t))
    assert generated <= derivable

    by_pair = {}
    for i, j, conds in generated:
        by_pair.setdefault((i, j), []).append(set(conds))
    def covered_by(phi, psi):
        # psi is at least as good as phi: either a subset, or weaker-or-equal
        # element-wise (every extra member of psi follows from one of phi's)
        return psi <= phi or all(any((e1, e2) in impco for e1 in phi - psi)
                                 for e2 in psi - phi)
    for i, j, conds in derivable:
        assert any(covered_by(set(conds), psi)
                   for psi in by_pair.get((i, j), []))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_generation_sound_vs_oracle_on_cyclic_theories(seed):
    """The soundness half on cyclic theories: the pipeline may lack oracle
    atoms there (the strict xfail), but emits none the oracle lacks.  At
    eight symbols one cyclic saturation can take seconds; seven bound it
    near one."""
    t = random_theory(random.Random(seed), max_symbols=7, acyclic=False)
    assert atom_keys(generate(t)) <= atom_keys(derive_all(t))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_optimize_matches_optimal_subset_on_all_derivations(seed, acyclic):
    """derive_all keeps every superset, which the pipeline no longer hands
    to the optimizer; the two prunings must still agree on it."""
    t = random_theory(random.Random(seed), acyclic=acyclic)
    atoms = derive_all(t)
    c = compute_closures(t)
    impco = impco_pairs(t)
    assert atom_keys(optimize(atoms, c)) == \
        atom_keys(optimal_subset(atoms, impco))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pipeline_matches_oracle_on_lifted_theories(seed):
    """Object links over o0..o3, one or two predicates of one kind each,
    sometimes propositional objects; causal links run forward in an IS-A
    rank of the lifted symbols, so the cause+IS-A graph stays acyclic."""
    rng = random.Random(seed)
    objects = ["o%d" % i for i in range(4)]
    links = rng.sample([ObjectOntAtom(objects[i], objects[j])
                        for i in range(4) for j in range(i + 1, 4)],
                       rng.randint(1, 3))
    kinds = {"propkind": objects if rng.random() < 0.3 else ()}
    for n in range(rng.randint(1, 2)):
        kind = rng.choice(["onekind", "allkind", "all_onekind"])
        kinds[kind] = kinds.get(kind, ()) + ("p%d" % n,)
    decls = KindDeclarations(**{k: frozenset(v) for k, v in kinds.items()})
    ontology = apply_restrictions(lift(links, decls), decls).atoms
    rank = TopologicalSorter()  # sub before super
    for oa in ontology:
        rank.add(oa.super, oa.sub)
    ranked = list(rank.static_order())
    causal = set()
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(len(ranked)), 2))
        causal.add(CausalAtom(ranked[i], ranked[j]))
    t = Theory(causal=frozenset(causal), object_ontology=frozenset(links),
               kind_decls=decls)
    lifted = t._replace(ontology=ontology)
    assume(len(symbol_universe(lifted)[1]) <= 11)
    c = compute_closures(lifted)
    pipeline = atom_keys(optimize(generate(lifted, c), c))
    oracle = optimal_subset(derive_all(lifted, max_symbols=11),
                            impco_pairs(lifted))
    assert pipeline == atom_keys(oracle)
    config = RunConfig(stage="opt", lifting=True)
    assert atom_keys(run_pipeline(t, StageFacts(), config).optimal) == pipeline


def _theory(causal, ontology):
    return Theory(
        causal=frozenset(CausalAtom(sym(a), sym(b)) for a, b in causal),
        ontology=frozenset(OntAtom(sym(a), sym(b)) for a, b in ontology))


# impco cycles where a superset that subset dominance would drop reduces
# to an optimal set: on the first, {s0,s1,s4} reduces to {s1,s4}
CYCLIC_THEORIES = {
    "s3-s4-s0-cycle": _theory(
        [("s0", "s1"), ("s1", "s5"), ("s3", "s5")],
        [("s0", "s3"), ("s2", "s5"), ("s3", "s2"), ("s3", "s4"),
         ("s4", "s0")]),
    "s2-s4-cycle": _theory(
        [("s0", "s2"), ("s3", "s5"), ("s4", "s6"), ("s6", "s3")],
        [("s0", "s4"), ("s1", "s3"), ("s2", "s4"), ("s4", "s2"),
         ("s4", "s3"), ("s5", "s3")]),
    "s1-s3-cycle": _theory(
        [("s0", "s2"), ("s0", "s3"), ("s1", "s0"), ("s1", "s4"),
         ("s4", "s2"), ("s5", "s4")],
        [("s0", "s2"), ("s1", "s3"), ("s3", "s1"), ("s3", "s5"),
         ("s3", "s7"), ("s5", "s4"), ("s6", "s2"), ("s7", "s4")]),
}


@pytest.mark.parametrize("name", sorted(CYCLIC_THEORIES))
def test_pipeline_matches_oracle_where_dominance_meets_a_cycle(name):
    t = CYCLIC_THEORIES[name]
    c = compute_closures(t)
    impco = impco_pairs(t)
    pipeline = atom_keys(optimize(generate(t), c))
    oracle = atom_keys(optimal_subset(derive_all(t), impco))
    assert pipeline == oracle


@pytest.mark.xfail(
    strict=True,
    reason="gathering composes a derived atom only with an initial step; "
           "the oracle also composes two derived atoms and then drops "
           "implied members, which reaches condition sets gathering "
           "misses on this cycle")
def test_pipeline_matches_oracle_on_a_cyclic_theory():
    # s2 and s4 imply each other (ont(s2,s4) + cause(s4,s2)).  The oracle
    # alone has (s3, s2, {s3, s4}) and (s3, s4, {s3, s4}): it composes two
    # derived atoms and then drops implied members, while gathering
    # composes a derived atom only with an initial step.  The pipeline has
    # no atom the oracle lacks.
    t = Theory(
        causal=frozenset([CausalAtom(sym("s3"), sym("s0")),
                          CausalAtom(sym("s4"), sym("s2"))]),
        ontology=frozenset([OntAtom(sym("s1"), sym("s2")),
                            OntAtom(sym("s1"), sym("s4")),
                            OntAtom(sym("s2"), sym("s0")),
                            OntAtom(sym("s2"), sym("s4"))]))
    c = compute_closures(t)
    impco = impco_pairs(t)
    pipeline = atom_keys(optimize(generate(t), c))
    oracle = atom_keys(optimal_subset(derive_all(t), impco))
    assert pipeline == oracle
