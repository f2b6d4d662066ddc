"""Shared fixtures: the running-example diagram and its chained copies, the
pruning mini-theory, and a random-theory generator for oracle comparison."""
import random

import pytest

from causalexpl.closure import compute_closures
from causalexpl.model import (CausalAtom, Literal, OntAtom, Symbol, Theory,
                              members)
from causalexpl.oracle import row_pairs

FIG_TEXT = """
% the running-example causal diagram
cause(alpha,beta).     cause(alpha,beta0).
cause(beta2,gamma).    cause(beta1,gamma).
cause(beta3,epsilon).  cause(gamma1,delta).
cause(gamma3,delta).   cause(epsilon3,gamma3).

ont(beta,beta2).       ont(beta1,beta).
ont(beta3,beta0).      ont(beta3,beta1).
ont(gamma1,gamma).     ont(gamma2,gamma).
ont(gamma2,gamma3).    ont(gamma2,epsilon).
ont(epsilon1,epsilon). ont(epsilon2,epsilon).
ont(epsilon1,epsilon3). ont(epsilon2,epsilon3).
"""


def _edges(pairs, cls):
    return frozenset(cls(Symbol(a), Symbol(b)) for a, b in pairs)


DIAGRAM_CAUSAL = [("alpha", "beta"), ("alpha", "beta0"), ("beta2", "gamma"),
                  ("beta1", "gamma"), ("beta3", "epsilon"),
                  ("gamma1", "delta"), ("gamma3", "delta"),
                  ("epsilon3", "gamma3")]
DIAGRAM_ONT = [("beta", "beta2"), ("beta1", "beta"), ("beta3", "beta0"),
               ("beta3", "beta1"), ("gamma1", "gamma"), ("gamma2", "gamma"),
               ("gamma2", "gamma3"), ("gamma2", "epsilon"),
               ("epsilon1", "epsilon"), ("epsilon2", "epsilon"),
               ("epsilon1", "epsilon3"), ("epsilon2", "epsilon3")]


@pytest.fixture(scope="session")
def diagram() -> Theory:
    """The 15-symbol running example."""
    return Theory(causal=_edges(DIAGRAM_CAUSAL, CausalAtom),
                  ontology=_edges(DIAGRAM_ONT, OntAtom))


def chain_theory(k: int) -> Theory:
    """k copies of the running example, copy i's symbols prefixed c{i}_,
    with cause(c{i}_delta, c{i+1}_alpha) between consecutive copies."""
    def copy(pairs, i):
        return [("c%d_%s" % (i, a), "c%d_%s" % (i, b)) for a, b in pairs]
    causal = [("c%d_delta" % i, "c%d_alpha" % (i + 1)) for i in range(k - 1)]
    ontology = []
    for i in range(k):
        causal += copy(DIAGRAM_CAUSAL, i)
        ontology += copy(DIAGRAM_ONT, i)
    return Theory(causal=_edges(causal, CausalAtom),
                  ontology=_edges(ontology, OntAtom))


@pytest.fixture(scope="session")
def diagram_text() -> str:
    return FIG_TEXT


@pytest.fixture(scope="session")
def pruning_mini() -> Theory:
    """The small theory where {alpha,beta1} makes {alpha,beta2} redundant."""
    causal = [("alpha", "beta"), ("alpha", "beta0"), ("beta2", "gamma"),
              ("beta1", "gamma")]
    ontology = [("beta2", "beta0"), ("beta1", "beta"), ("beta2", "beta1")]
    return Theory(causal=_edges(causal, CausalAtom),
                  ontology=_edges(ontology, OntAtom))


def random_theory(rng: random.Random, max_symbols: int = 8,
                  max_causal: int = 10, max_ont: int = 10,
                  acyclic: bool = True) -> Theory:
    """A random small theory; by default the cause+ont digraph is acyclic.

    Acyclicity is enforced by drawing edges along a fixed symbol ranking,
    which keeps impco antisymmetric (see tests/test_oracle.py for why the
    cyclic case is excluded from the equivalence property).
    """
    n = rng.randint(2, max_symbols)
    symbols = [Symbol("s%d" % i) for i in range(n)]
    causal, ontology = set(), set()
    for _ in range(rng.randint(0, max_causal)):
        i, j = rng.sample(range(n), 2)
        if acyclic and i > j:
            i, j = j, i
        causal.add(CausalAtom(symbols[i], symbols[j]))
    for _ in range(rng.randint(0, max_ont)):
        i, j = rng.sample(range(n), 2)
        if acyclic and i > j:
            i, j = j, i
        ontology.add(OntAtom(symbols[i], symbols[j]))
    return Theory(causal=frozenset(causal), ontology=frozenset(ontology))


def atom_keys(atoms):
    """The atoms as (source, target, sorted conditions) tuples, comparable
    with tuples written out by hand."""
    return {(a.source, a.target, tuple(sorted(a.conditions))) for a in atoms}


def impco_pairs(t: Theory):
    """t's impco as a set of (implying, implied) symbol pairs, decoded from
    the closure index's rows as the oracle decodes them."""
    return row_pairs(compute_closures(t).impco_above)


def chosen_literals(world):
    """The literals a world chooses, decoded from its chosen masks."""
    positive, negative = world.chosen
    return frozenset([Literal(a, True) for a in members(positive)]
                     + [Literal(a, False) for a in members(negative)])


def decoded(world):
    """A world as (index, chosen literals, true, false, causal atoms)."""
    return (world.index, chosen_literals(world), world.true, world.false,
            frozenset(members(world.causal)))
