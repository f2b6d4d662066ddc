"""Worlds against the answer sets of the theory read as a logic program.

The reference enumerates every three-valued assignment of a theory's atoms
(a symbol or causal atom is true, false or unknown) and keeps the models: an
assignment that holds the unit facts and the causal facts, makes some
literal of every clause true, assigns every completed atom, and is closed
under impco (the cause + IS-A implication of its true causal atoms): true
upward, false downward.  Its minimal models, ordered by inclusion of both
the true and the false atoms, are the answer sets of the positive
disjunctive program with classical negation (Gelfond & Lifschitz, New
Generation Computing 9, 1991), a false atom being its classical negation.

Two facts hold today: every minimal model is a world on symbol bits, and,
on theories whose choices hold no causal literal, the brave verdicts on the
base causal set's optimal atoms are the same whether read over the worlds
or over the minimal models.  Worlds are neither unique nor minimal, so
neither the converse of the first nor cautious verdicts are compared, and
a world may choose the negation of a causal fact, which the reference
holds as it holds a symbol fact.
"""
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalexpl.closure import compute_closures
from causalexpl.generate import generate
from causalexpl.model import (CausalAtom, Clause, Literal, Symbol, Theory,
                              members, symbol_universe)
from causalexpl.optimize import optimize
from causalexpl.worlds import enumerate_worlds
from conftest import impco_pairs, random_theory


def minimal_models(t):
    """The minimal three-valued models of t, each as (true atoms, false
    atoms), in no particular order."""
    symbols, _ = symbol_universe(t)
    literals = set(t.facts).union(*(c.literals for c in t.clauses))
    atoms = (symbols | t.causal | t.completions
             | {lit.atom for lit in literals})
    must_true = {lit.atom for lit in t.facts if lit.positive} | t.causal
    must_false = {lit.atom for lit in t.facts if not lit.positive}
    if must_true & must_false:
        return []
    free = sorted(atoms - must_true - must_false, key=str)
    clauses = [c.literals for c in t.clauses if not c.is_tautology()]
    impco = {}  # per set of true causal atoms

    models = []
    for values in itertools.product((None, True, False), repeat=len(free)):
        true = frozenset(must_true.union(
            a for a, v in zip(free, values) if v is True))
        false = frozenset(must_false.union(
            a for a, v in zip(free, values) if v is False))
        if any(a not in true and a not in false for a in t.completions):
            continue
        if not all(any(lit.atom in (true if lit.positive else false)
                       for lit in clause) for clause in clauses):
            continue
        causal = frozenset(a for a in true if isinstance(a, CausalAtom))
        if causal not in impco:
            impco[causal] = impco_pairs(t.with_causal(causal))
        if any(a in true and b not in true or b in false and a not in false
               for a, b in impco[causal]):
            continue
        models.append((true, false))
    return [m for m in models
            if not any(o != m and o[0] <= m[0] and o[1] <= m[1]
                       for o in models)]


def symbols_of(atoms):
    """The symbols among atoms, causal atoms left out."""
    return frozenset(a for a in atoms if isinstance(a, Symbol))


def symbol_assignment(world):
    """A world's true and false symbols."""
    return symbols_of(members(world.true)), symbols_of(members(world.false))


def choice_theory(rng, causal_literals=False):
    """A random theory with choices, or None when it mentions fewer than
    two symbols: random_theory over at most 5 symbols, 4 causal and 4 IS-A
    atoms, with 1-3 disjunctive facts of 2-3 literals (positive with
    p = 0.6, a clause that collapses or is a tautology skipped) and at most
    one completion.  With causal_literals, a literal or the completion is
    over a causal atom with p = 0.3, one of t's or a new one."""
    t = random_theory(rng, max_symbols=5, max_causal=4, max_ont=4)
    symbols = sorted(symbol_universe(t)[0], key=str)
    if len(symbols) < 2:
        return None
    if causal_literals:
        causal = sorted(t.causal, key=str)
        causal.append(CausalAtom(*rng.sample(symbols, 2)))

    def atom():
        if causal_literals and rng.random() < 0.3:
            return rng.choice(causal)
        return rng.choice(symbols)

    clauses = set()
    for _ in range(rng.randint(1, 3)):
        clause = Clause(frozenset(Literal(atom(), rng.random() < 0.6)
                                  for _ in range(rng.randint(2, 3))))
        if len(clause.literals) >= 2 and not clause.is_tautology():
            clauses.add(clause)
    completions = frozenset(atom() for _ in range(rng.randint(0, 1)))
    return t._replace(clauses=frozenset(clauses), completions=completions)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_every_minimal_model_is_a_world(seed, causal_literals):
    t = choice_theory(random.Random(seed), causal_literals)
    assume(t is not None)
    worlds = {symbol_assignment(w) for w in enumerate_worlds(t)}
    for true, false in minimal_models(t):
        assert (symbols_of(true), symbols_of(false)) in worlds


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_brave_verdicts_agree_with_the_minimal_models(seed):
    t = choice_theory(random.Random(seed))
    assume(t is not None)
    c = compute_closures(t)
    optimal = optimize(generate(t, c), c)

    def brave(false_sets):
        return {a for a in optimal
                if any(not a.conditions & false for false in false_sets)}
    worlds = [symbol_assignment(w)[1] for w in enumerate_worlds(t)]
    assert brave(worlds) == brave([f for _, f in minimal_models(t)])


def test_a_causal_fact_is_a_hard_fact_in_the_reference():
    # cause(a,b). -cause(a,b) v true(c). has one answer set, in which a and
    # b are unknown; the engine also keeps a world that chooses -cause(a,b)
    ab, c = CausalAtom(Symbol("a"), Symbol("b")), Symbol("c")
    t = Theory(causal=frozenset([ab]), clauses=frozenset(
        [Clause(frozenset([Literal(ab, False), Literal(c, True)]))]))
    assert minimal_models(t) == [(frozenset([ab, c]), frozenset())]


@pytest.mark.xfail(strict=True, reason="a world may choose a causal fact's "
                   "negation; the reference holds the fact")
def test_worlds_are_the_minimal_models_when_a_causal_fact_is_chosen():
    ab, c = CausalAtom(Symbol("a"), Symbol("b")), Symbol("c")
    t = Theory(causal=frozenset([ab]), clauses=frozenset(
        [Clause(frozenset([Literal(ab, False), Literal(c, True)]))]))
    worlds = {(frozenset(members(w.true)), frozenset(members(w.false)))
              for w in enumerate_worlds(t)}
    assert worlds == set(minimal_models(t))
