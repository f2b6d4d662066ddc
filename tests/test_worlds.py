"""World enumeration, truth propagation and brave/cautious verification."""
import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import defaultdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import causalexpl
from causalexpl import cli, model
from causalexpl.closure import compute_closures
from causalexpl.generate import generate
from causalexpl.model import (CausalAtom, Clause, ExplanationAtom, Literal,
                              OntAtom, Symbol, Theory, sym, symbol_universe,
                              validate_theory)
from causalexpl.optimize import optimize
from causalexpl.parser import ParseError, StageFacts, emit_theory, parse_input
from causalexpl.worlds import (InconsistentTheoryError, WorldOverflowError,
                               brave_cautious, enumerate_worlds,
                               propagate_truth, verify)
from conftest import atom_keys, chain_theory, decoded, impco_pairs


def _clause(*literals):
    return Clause(frozenset(literals))


def _value(world, atom):
    """atom's value in world: True, False, or None when unknown."""
    if world.true & atom.bit:
        return True
    return False if world.false & atom.bit else None


def test_no_choices_single_world():
    t = Theory(causal=frozenset([CausalAtom(sym("a"), sym("b"))]),
               facts=frozenset([Literal(sym("a"), True)]))
    worlds = enumerate_worlds(t)
    assert len(worlds) == 1
    assert worlds[0].index == 1
    assert _value(worlds[0], sym("a")) is True


def test_completion_atom_two_worlds():
    t = Theory(completions=frozenset([sym("a")]))
    worlds = enumerate_worlds(t)
    assert len(worlds) == 2
    assert {_value(w, sym("a")) for w in worlds} == {True, False}


def test_disjunctive_fact_exclusive_vs_inclusive():
    clause = _clause(Literal(sym("a"), True), Literal(sym("b"), True))
    t = Theory(clauses=frozenset([clause]))
    assert len(enumerate_worlds(t)) == 2
    assert len(enumerate_worlds(t, inclusive_disjunction=True)) == 3


def test_tautology_is_no_choice_axis():
    # validate_theory warns that the clause is dropped, and the parser drops
    # it: a theory built in code holding it has the parsed theory's worlds
    text = "cause(a,b). -true(a) v true(a) v true(b)."
    built = Theory(causal=frozenset([CausalAtom(sym("a"), sym("b"))]),
                   clauses=frozenset([_clause(Literal(sym("a"), False),
                                              Literal(sym("a"), True),
                                              Literal(sym("b"), True))]))
    runs = [cli.run_pipeline(t, StageFacts(), cli.RunConfig())
            for t in (built, parse_input(text).theory)]
    built_worlds, parsed_worlds = [
        [(w.index, w.chosen, w.true, w.false, w.causal) for w in run.worlds]
        for run in runs]
    assert built_worlds == parsed_worlds and len(built_worlds) == 1
    assert runs[0].warnings == [
        "tautology dropped: -true(a) v true(a) v true(b)"]


def _world_masks(t):
    return [(w.index, w.true, w.false, w.causal)
            for w in enumerate_worlds(t, max_worlds=10 ** 6)]


def test_one_literal_clause_is_the_unit_fact_it_prints_as():
    # an axis with one option: a is true, and so is b through cause(a,b),
    # as in the parsed `true(a).`, not unknown
    a, b, c = sym("a"), sym("b"), sym("c")
    t = Theory(causal=frozenset([CausalAtom(a, b)]),
               clauses=frozenset([_clause(Literal(a, True))]),
               completions=frozenset([c]))
    parsed = parse_input(emit_theory(t)).theory
    assert parsed.facts == {Literal(a, True)} and not parsed.clauses
    worlds = enumerate_worlds(t)
    assert len(worlds) == 2
    assert all(_value(w, a) is True and _value(w, b) is True for w in worlds)
    assert _world_masks(t) == _world_masks(parsed)


def test_causal_disjunct_changes_world_causal_set():
    b2g = CausalAtom(sym("beta2"), sym("gamma"))
    e3g3 = CausalAtom(sym("epsilon3"), sym("gamma3"))
    clause = _clause(Literal(b2g, True), Literal(e3g3, True))
    t = Theory(clauses=frozenset([clause]))
    worlds = enumerate_worlds(t)
    assert {frozenset(model.members(w.causal)) for w in worlds} == {
        frozenset([b2g]), frozenset([e3g3])}


def test_causal_completion_removes_atom_when_false():
    ab = CausalAtom(sym("a"), sym("b"))
    t = Theory(causal=frozenset([ab]), completions=frozenset([ab]))
    worlds = enumerate_worlds(t)
    assert {frozenset(model.members(w.causal)) for w in worlds} == {
        frozenset([ab]), frozenset()}


def test_world_overflow():
    completions = frozenset(sym("c%d" % i) for i in range(5))
    t = Theory(completions=completions)
    with pytest.raises(WorldOverflowError):
        enumerate_worlds(t, max_worlds=31)
    assert len(enumerate_worlds(t, max_worlds=32)) == 32


def test_max_worlds_bounds_surviving_worlds_not_combinations():
    # 12 completions make 4096 combinations, but facts fix all but one
    completions = frozenset(sym("c%d" % i) for i in range(12))
    facts = frozenset(Literal(sym("c%d" % i), True) for i in range(11))
    t = Theory(completions=completions, facts=facts)
    assert len(enumerate_worlds(t, max_worlds=2)) == 2
    with pytest.raises(WorldOverflowError):
        enumerate_worlds(t, max_worlds=1)


def test_overflow_with_more_axes_than_the_recursion_limit():
    completions = frozenset(sym("c%d" % i) for i in range(2000))
    with pytest.raises(WorldOverflowError):
        enumerate_worlds(Theory(completions=completions), max_worlds=3)


def _propagated(true, false, *ontology):
    """propagate_truth over the impco of the given IS-A links."""
    c = compute_closures(Theory(ontology=frozenset(
        OntAtom(sym(a), sym(b)) for a, b in ontology)))
    return propagate_truth(true, false, c.impco_above, c.impco_below)


def test_truth_propagates_forward_and_backward():
    beta1, beta, gamma1, gamma = map(sym, ("beta1", "beta", "gamma1", "gamma"))
    assert _propagated(beta1.bit, 0, ("beta1", "beta")) == (
        beta1.bit | beta.bit, 0)
    assert _propagated(0, gamma.bit, ("gamma1", "gamma")) == (
        0, gamma1.bit | gamma.bit)
    # true(a) with impco(a, b) makes b true, which clashes with -true(b)
    a, b = sym("a"), sym("b")
    up, down = _propagated(a.bit, b.bit, ("a", "b"))
    assert up & b.bit and (a.bit | up) & (b.bit | down)


def test_conflicting_world_discarded():
    # true(a) forces true(b) along cause(a,b), clashing with -true(b).
    t = Theory(causal=frozenset([CausalAtom(sym("a"), sym("b"))]),
               facts=frozenset([Literal(sym("b"), False)]),
               completions=frozenset([sym("a")]))
    worlds = enumerate_worlds(t)
    assert len(worlds) == 1
    assert _value(worlds[0], sym("a")) is False


def test_clause_violation_three_valued():
    clause = _clause(Literal(sym("a"), True), Literal(sym("b"), True))
    t = Theory(clauses=frozenset([clause]),
               facts=frozenset([Literal(sym("a"), False)]),
               completions=frozenset([sym("b")]))
    # the disjunctive fact also generates worlds; with a false and the
    # completion choosing b false, the clause kills that world
    worlds = enumerate_worlds(t)
    assert all(not (_value(w, sym("a")) is False
                    and _value(w, sym("b")) is False) for w in worlds)


def test_verify_drops_atoms_with_false_member(diagram):
    t = Theory(causal=diagram.causal, ontology=diagram.ontology,
               facts=frozenset([Literal(sym("gamma1"), False)]))
    c = compute_closures(t)
    optimal = optimize(generate(t), c)
    (world,) = enumerate_worlds(t)
    kept = verify(optimal, world)
    conds = {cs for s, t, cs in atom_keys(kept)
             if (s, t) == (sym("alpha"), sym("delta"))}
    gam1 = tuple(sorted((sym("alpha"), sym("gamma1"))))
    assert gam1 not in conds
    assert len(conds) == 3
    assert kept <= optimal


def test_verify_no_negative_facts_keeps_all(diagram):
    c = compute_closures(diagram)
    optimal = optimize(generate(diagram), c)
    (world,) = enumerate_worlds(diagram)
    assert {tuple(a) for a in verify(optimal, world)} == \
        {tuple(a) for a in optimal}


def test_brave_cautious_flags():
    atom = ExplanationAtom(sym("a"), sym("b"), (sym("a"),))
    # brave: the atom is a key; cautious: its worlds are all the worlds
    assert brave_cautious({1: [atom], 2: []}, 2) == {atom: frozenset({1})}
    assert brave_cautious({1: [atom]}, 1) == {atom: frozenset({1})}


def test_atoms_verified_in_the_same_worlds_share_one_verdict():
    a, b, c, d = (ExplanationAtom(sym(s), sym("z"), (sym(s),))
                  for s in "abcd")
    # lists with equal atoms in different orders are one verified set
    verdicts = brave_cautious(
        {1: [a, b, c], 2: [b, a], 3: [c], 4: [d, c], 5: []}, 5)
    assert verdicts == {a: frozenset({1, 2}), b: frozenset({1, 2}),
                        c: frozenset({1, 3, 4}), d: frozenset({4})}
    assert verdicts[a] is verdicts[b]
    # the pipeline's verdicts: one object per distinct set of worlds
    t = parse_input("cause(a,b). cause(a,c). cause(d,e). cause(d,f). "
                    "cause(g,h). true(a) v -true(a). "
                    "true(d) v -true(d).").theory
    result = cli.run_pipeline(t, StageFacts(), cli.RunConfig())
    shared = {}
    for worlds in result.verdicts.values():
        assert shared.setdefault(worlds, worlds) is worlds
    assert sorted(map(sorted, shared)) == [[1, 2], [1, 2, 3, 4], [1, 3]]
    assert len(result.verdicts) == 5


def test_brave_cautious_no_worlds_raises():
    with pytest.raises(InconsistentTheoryError):
        brave_cautious({}, 0)


def test_negative_fact_monotone(diagram):
    """Adding a -true fact never grows the verified set."""
    c = compute_closures(diagram)
    optimal = optimize(generate(diagram), c)
    (base_world,) = enumerate_worlds(diagram)
    base = {tuple(a) for a in verify(optimal, base_world)}
    for name in ("gamma1", "beta3", "epsilon"):
        t = Theory(causal=diagram.causal, ontology=diagram.ontology,
                   facts=frozenset([Literal(sym(name), False)]))
        (world,) = enumerate_worlds(t)
        assert {tuple(a) for a in verify(optimal, world)} <= base


# -- differential test against a brute-force enumeration ----------------------

def _reference_worlds(t, inclusive):
    """Every combination of itertools.product over the choice axes, each
    checked on its own: the specification of enumerate_worlds.  Truth is a
    dict, propagated over impco's pairs, and becomes the masks of the true
    and of the false atoms only at the end."""
    axes = []
    for clause in sorted(t.disjunctive_facts, key=lambda c: c.render()):
        literals = clause.sorted_literals()
        sizes = range(1, len(literals) + 1) if inclusive else (1,)
        axes.append([group for r in sizes
                     for group in itertools.combinations(literals, r)])
    for atom in sorted(t.completions, key=str):
        axes.append([(Literal(atom, True),), (Literal(atom, False),)])

    worlds = []
    for combo in itertools.product(*axes):
        chosen = set(t.facts).union(*combo)
        if any(lit.negated() in chosen for lit in chosen):
            continue
        truth = {lit.atom: lit.positive for lit in chosen
                 if not isinstance(lit.atom, CausalAtom)}
        causal_truth = {lit.atom: lit.positive for lit in chosen
                        if isinstance(lit.atom, CausalAtom)}
        causal = frozenset(
            ca for ca in set(t.causal) | set(causal_truth)
            if causal_truth.get(ca, True))
        for ca in causal:
            causal_truth[ca] = True
        # impco is transitive: one step from each chosen atom closes truth
        succ, pred = defaultdict(set), defaultdict(set)
        for a, b in impco_pairs(t.with_causal(causal)):
            succ[a].add(b)
            pred[b].add(a)
        if any(truth.setdefault(other, value) != value
               for s, value in list(truth.items())
               for other in (succ if value else pred).get(s, ())):
            continue
        if any(all((causal_truth if isinstance(lit.atom, CausalAtom)
                    else truth).get(lit.atom) == (not lit.positive)
                   for lit in clause.literals)
               for clause in t.clauses):
            continue
        values = {**truth, **causal_truth}
        worlds.append((len(worlds) + 1, frozenset(chosen),
                       sum(a.bit for a, v in values.items() if v),
                       sum(a.bit for a, v in values.items() if not v), causal))
    return worlds


def _random_world_theory(rng):
    """A small theory with every kind of choice: symbol and causal
    completions, disjunctive facts, unit facts and unit clauses."""
    symbols = [sym("s%d" % i) for i in range(rng.randint(2, 5))]

    def causal_atom():
        a, b = rng.sample(symbols, 2)
        return CausalAtom(a, b)

    def literal():
        atom = causal_atom() if rng.random() < 0.3 else rng.choice(symbols)
        return Literal(atom, rng.random() < 0.6)

    causal = {causal_atom() for _ in range(rng.randint(0, 4))}
    ontology = set()
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(symbols, 2)
        ontology.add(OntAtom(a, b))
    completions = set(rng.sample(symbols, rng.randint(0, 2)))
    completions.update(causal_atom() for _ in range(rng.randint(0, 2)))
    facts = {literal() for _ in range(rng.randint(0, 2))}
    clauses = {Clause(frozenset(literal() for _ in range(rng.randint(1, 3))))
               for _ in range(rng.randint(0, 3))}
    return Theory(causal=frozenset(causal), ontology=frozenset(ontology),
                  facts=frozenset(facts), clauses=frozenset(clauses),
                  completions=frozenset(completions))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_enumeration_matches_brute_force(seed, inclusive):
    t = _random_world_theory(random.Random(seed))
    worlds = enumerate_worlds(t, max_worlds=10 ** 6,
                              inclusive_disjunction=inclusive)
    assert list(map(decoded, worlds)) == _reference_worlds(t, inclusive)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verify_is_the_three_valued_definition(seed):
    # random condition sets over the theory's symbols and one it never
    # mentions, so members are true, false and unknown in each world
    rng = random.Random(seed)
    t = _random_world_theory(rng)
    symbols = sorted(symbol_universe(t)[0]) + [sym("unmentioned")]
    atoms = []
    for _ in range(12):
        source, target = rng.choice(symbols), rng.choice(symbols)
        members = {source}.union(
            rng.sample(symbols, rng.randint(0, min(3, len(symbols)))))
        atoms.append(ExplanationAtom(source, target, members))
    for world in enumerate_worlds(t, max_worlds=10 ** 6):
        assert verify(atoms, world) == frozenset(
            a for a in atoms
            if not any(_value(world, m) is False for m in a.conditions))


def _positive_causal_unit(t):
    """Whether t holds a positive causal literal as a fact or a one-literal
    clause: held hard in code, while its printed cause(a,b). is a default
    (test_a_positive_causal_fact_has_the_worlds_of_its_text)."""
    units = t.facts.union(*(c.literals for c in t.clauses
                            if len(c.literals) == 1))
    return any(lit.positive and isinstance(lit.atom, CausalAtom)
               for lit in units)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_theory_built_in_code_has_the_worlds_of_its_text(seed):
    t = _random_world_theory(random.Random(seed))
    assume(not _positive_causal_unit(t))
    try:
        parsed = parse_input(emit_theory(t)).theory
    except ParseError:
        parsed = None
    assert bool(validate_theory(t).errors) == (parsed is None)
    if parsed is not None:
        assert _world_masks(t) == _world_masks(parsed)


@pytest.mark.xfail(strict=True, reason="a positive causal fact is held hard "
                   "in code and is a default in text")
def test_a_positive_causal_fact_has_the_worlds_of_its_text():
    # 1 world from code, 2 from the text `cause(a,b). cause(a,b) v
    # -cause(a,b).`, whose completion can assign the default false
    ab = CausalAtom(sym("a"), sym("b"))
    t = Theory(facts=frozenset([Literal(ab, True)]),
               completions=frozenset([ab]))
    assert _world_masks(t) == _world_masks(
        parse_input(emit_theory(t)).theory)


def _counting_propagation(monkeypatch):
    """The (true, false) masks of every propagate_truth call."""
    calls = []

    def counting(true, false, above, below):
        calls.append((true, false))
        return propagate_truth(true, false, above, below)

    monkeypatch.setattr("causalexpl.worlds.propagate_truth", counting)
    return calls


def test_propagated_clash_prunes_the_walk(monkeypatch):
    # c0 IS-A c1 ... IS-A c11, all completed: true(ci) forces true(ci+1), so
    # only the 13 threshold assignments survive of 4,096 combinations
    chain = [sym("c%d" % i) for i in range(12)]
    t = Theory(ontology=frozenset(OntAtom(a, b)
                                  for a, b in zip(chain, chain[1:])),
               completions=frozenset(chain))
    calls = _counting_propagation(monkeypatch)
    worlds = enumerate_worlds(t, max_worlds=10 ** 6)
    assert len(calls) <= 100
    monkeypatch.undo()
    assert len(worlds) == 13
    assert list(map(decoded, worlds)) == _reference_worlds(t, False)


def test_a_depth_that_adds_no_bit_propagates_nothing(monkeypatch):
    # the facts fix a and b, so the completions of a and b add no bit in
    # the world that chooses them as the facts do, and the other option
    # clashes with the facts
    a, b, c = sym("a"), sym("b"), sym("c")
    t = Theory(ontology=frozenset([OntAtom(a, c)]),
               facts=frozenset([Literal(a, True), Literal(b, False)]),
               completions=frozenset([a, b]))
    calls = _counting_propagation(monkeypatch)
    (world,) = enumerate_worlds(t)
    monkeypatch.undo()
    # the whole masks once, at the fixing depth, and no call after it
    assert calls == [(a.bit, b.bit)]
    assert world.true == a.bit | c.bit and world.false == b.bit


@pytest.mark.parametrize("inclusive", [False, True])
def test_causal_set_fixed_partway_through_the_walk(monkeypatch, inclusive):
    a, b, c, d, e = (sym(name) for name in "abcde")
    ab, be, bc, cd = (CausalAtom(a, b), CausalAtom(b, e), CausalAtom(b, c),
                      CausalAtom(c, d))
    t = Theory(
        causal=frozenset([ab, cd]),
        # d IS-A e: with -true(e) chosen, true(d) and true(c) clash only
        # through propagation
        ontology=frozenset([OntAtom(d, e)]),
        facts=frozenset([Literal(ab, False)]),
        clauses=frozenset([_clause(Literal(be, True), Literal(e, False)),
                           _clause(Literal(a, True), Literal(c, True))]),
        # axes: the two disjunctions, then a, b, cause(b,c), c, d, e; the
        # walk takes the first disjunction and cause(b,c) first, so the
        # causal set is fixed after its second axis
        completions=frozenset([a, b, bc, c, d, e]))
    calls = _counting_propagation(monkeypatch)
    worlds = enumerate_worlds(t, max_worlds=10 ** 6,
                              inclusive_disjunction=inclusive)
    monkeypatch.undo()
    assert list(map(decoded, worlds)) == _reference_worlds(t, inclusive)
    assert {frozenset(model.members(w.causal)) for w in worlds} == {
        frozenset(s) for s in ([cd], [cd, be], [cd, bc], [cd, be, bc])}
    # whole masks at the fixing depth, which hold t's causal atom c -> d;
    # after it, one call per later option with only the atoms it added
    whole = [true | false for true, false in calls if true & cd.bit]
    added = [true | false for true, false in calls if not true & cd.bit]
    assert whole and any(added)
    assert set(added) <= {0, a.bit | c.bit} | {s.bit for s in (a, b, c, d, e)}


def test_pipeline_generates_once_per_causal_set(monkeypatch):
    ab = CausalAtom(sym("a"), sym("b"))
    cb = CausalAtom(sym("c"), sym("b"))
    t = Theory(causal=frozenset([ab]),
               completions=frozenset([cb, sym("x"), sym("y")]))
    calls = []

    def counting_generate(theory, closures=None):
        calls.append(theory.causal)
        return generate(theory, closures)

    closed = []

    def counting_closures(theory):
        closed.append(theory.causal)
        return compute_closures(theory)

    monkeypatch.setattr(cli, "generate", counting_generate)
    monkeypatch.setattr("causalexpl.closure.compute_closures",
                        counting_closures)
    result = cli.run_pipeline(t, StageFacts(), cli.RunConfig())
    causal_sets = {frozenset(model.members(w.causal)) for w in result.worlds}
    assert len(result.worlds) == 8 and len(causal_sets) == 2
    assert sorted(calls, key=len) == sorted(causal_sets, key=len)
    assert sorted(closed, key=len) == sorted(causal_sets, key=len)
    for world in result.worlds:
        tw = t.with_causal(model.members(world.causal))
        expected = verify(optimize(generate(tw), compute_closures(tw)),
                          world)
        assert result.verified[world.index] == expected


def _false_symbols(world):
    return frozenset(s for s in model.members(world.false)
                     if isinstance(s, Symbol))


def test_worlds_share_their_causal_set():
    t = parse_input("cause(a,b). cause(b,c) v -cause(b,c). "
                    "true(x) v -true(x). true(y) v -true(y).").theory
    base = sum(ca.bit for ca in t.causal)
    given = compute_closures(t)
    closures = {base: given}
    worlds = enumerate_worlds(t, closures=closures)
    assert len(worlds) == 8
    # a world's causal mask keys its set's closures; the caller's entry is
    # used, not rebuilt
    bc = CausalAtom(sym("b"), sym("c")).bit
    assert {w.causal for w in worlds} == set(closures) == {base, base | bc}
    assert closures[base] is given


def test_pipeline_verifies_once_per_atom_set_and_relevant_false_symbols(
        monkeypatch):
    # the inclusive disjunction's three options leave x and y true or
    # unknown; z and a are completed, and only a occurs in a condition, so
    # each (causal set, a) has six worlds, two values of z and one pair
    t = parse_input("cause(a,b). cause(b,c) v -cause(b,c). "
                    "true(x) v true(y). true(z) v -true(z). "
                    "true(a) v -true(a).").theory
    calls = []

    def relevant(atoms, world):
        mentioned = frozenset().union(*(a.conditions for a in atoms))
        return atoms, _false_symbols(world) & mentioned

    def counting_verify(atoms, world):
        calls.append(relevant(atoms, world))
        return verify(atoms, world)

    monkeypatch.setattr(cli, "verify", counting_verify)
    result = cli.run_pipeline(t, StageFacts(),
                              cli.RunConfig(inclusive_disjunction=True))
    monkeypatch.undo()
    pairs = {}
    for w in result.worlds:
        tw = t.with_causal(model.members(w.causal))
        c = compute_closures(tw)
        pairs[w.index] = relevant(optimize(generate(tw, c), c), w)
    assert len(result.worlds) == 24
    assert len({(w.causal, _false_symbols(w)) for w in result.worlds}) == 8
    assert len(calls) == len(set(calls)) == 4
    assert set(calls) == set(pairs.values())
    # each world holds its pair's one verified set, the set verify gives it
    by_pair = {}
    for world in result.worlds:
        verified = result.verified[world.index]
        assert by_pair.setdefault(pairs[world.index], verified) is verified
        atoms = pairs[world.index][0]
        assert verified == verify(atoms, world)


def test_pipeline_drops_closures_no_world_needs(monkeypatch):
    # next to the base set's, the walk builds closures for {cause(a,b),
    # cause(b,c)}, whose only branch dies as a propagates to c; the one
    # world is on the empty set
    t = parse_input("cause(b,c). true(a). -true(c). "
                    "-cause(b,c) v cause(a,b).").theory
    built, held = [], []

    def keeping_enumerate(*args, closures, **kwargs):
        worlds = enumerate_worlds(*args, closures=closures, **kwargs)
        built.append({frozenset(model.members(k)) for k in closures})
        held.append(closures)
        return worlds

    def recording_verify(atoms, world):
        held.append(set(held[0]))
        return verify(atoms, world)

    monkeypatch.setattr(cli, "enumerate_worlds", keeping_enumerate)
    monkeypatch.setattr(cli, "verify", recording_verify)
    result = cli.run_pipeline(t, StageFacts(), cli.RunConfig(stage="verify"))
    a, b, c = sym("a"), sym("b"), sym("c")
    assert [frozenset(model.members(w.causal)) for w in result.worlds] == [
        frozenset()]
    assert built == [{frozenset(), frozenset({CausalAtom(b, c)}),
                      frozenset({CausalAtom(a, b), CausalAtom(b, c)})}]
    # by the one world's verify, its own closures are used up and those of
    # the dead causal set are gone
    assert held[1:] == [set()]


# per world, the bytes enumerate_worlds leaves allocated on chain 2 with its
# first 20 symbols completed, closures built beforehand
_RETAINED = """
import tracemalloc
from causalexpl.model import symbol_universe
from causalexpl.worlds import enumerate_worlds
from conftest import chain_theory
t = chain_theory(2)
t = t._replace(completions=frozenset(sorted(symbol_universe(t)[0])[:20]))
closures = {}
enumerate_worlds(t, max_worlds=10 ** 6, closures=closures)
tracemalloc.start()
worlds = enumerate_worlds(t, max_worlds=10 ** 6, closures=closures)
print(len(worlds), tracemalloc.get_traced_memory()[0] / len(worlds))
"""


def test_worlds_hold_only_masks():
    # a world is ints only, so the many worlds of a run cost little.  The
    # bytes are counted in a new process: a mask is as wide as the highest
    # bit the process has numbered, and other tests number many symbols
    t = chain_theory(2)
    t = t._replace(completions=frozenset(sorted(symbol_universe(t)[0])[:4]))
    for w in enumerate_worlds(t):
        assert list(map(type, (w.causal, w.true, w.false) + w.chosen)) == \
            [int] * 5
    paths = [pathlib.Path(causalexpl.__file__).resolve().parents[1],
             pathlib.Path(__file__).resolve().parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run([sys.executable, "-c", _RETAINED], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    count, per_world = proc.stdout.split()
    assert int(count) == 944 and float(per_world) < 700
