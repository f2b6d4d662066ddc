"""Seeded inputs for the three workloads.

Every workload is built from the running-example diagram.  The structure of
each input (which links, completions and disjunctions it has) is fixed, so
every seed asks the program for the same amount of work.  The seed draws
what may vary without changing that work: a fresh name for every symbol, the
order of the statements and the order of the literals inside a disjunction.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

DIAGRAM_CAUSAL = [
    ("alpha", "beta"), ("alpha", "beta0"), ("beta2", "gamma"),
    ("beta1", "gamma"), ("beta3", "epsilon"), ("gamma1", "delta"),
    ("gamma3", "delta"), ("epsilon3", "gamma3")]
DIAGRAM_ONT = [
    ("beta", "beta2"), ("beta1", "beta"), ("beta3", "beta0"),
    ("beta3", "beta1"), ("gamma1", "gamma"), ("gamma2", "gamma"),
    ("gamma2", "gamma3"), ("gamma2", "epsilon"), ("epsilon1", "epsilon"),
    ("epsilon2", "epsilon"), ("epsilon1", "epsilon3"),
    ("epsilon2", "epsilon3")]
DIAGRAM_SYMBOLS = sorted({s for pair in DIAGRAM_CAUSAL + DIAGRAM_ONT
                          for s in pair})

CHAIN_COPIES = 3

# worlds_sym: 12 completed symbols and 4 two-literal disjunctive facts,
# 2^16 = 65,536 combinations of which 7,680 are consistent and 282 survive
# as worlds (72 distinct chosen-literal sets).
SYM_COMPLETIONS = [
    "beta", "beta0", "beta2", "beta3", "gamma1", "gamma2", "gamma3", "delta",
    "epsilon", "epsilon1", "epsilon2", "epsilon3"]
SYM_DISJUNCTIONS = [
    (("beta1", False), ("gamma1", True)),
    (("delta", False), ("beta1", False)),
    (("delta", True), ("gamma2", False)),
    (("gamma3", False), ("epsilon3", False))]

# worlds_causal: 5 causal completions (four diagram links that may be
# dropped, one forward link that may be added) and 5 completed symbols,
# 2^10 = 1,024 combinations, 416 worlds over 32 causal sets, 10 of them on
# the base causal set.  The added link follows the diagram's topological
# order, so each world's theory stays acyclic, which the oracle needs.
CAUSAL_COMPLETIONS = [
    ("alpha", "beta"), ("alpha", "beta0"), ("gamma1", "delta"),
    ("gamma1", "gamma2"), ("gamma3", "delta")]
CAUSAL_SYM_COMPLETIONS = ["gamma2", "delta", "epsilon", "epsilon1",
                          "epsilon3"]

Literal = Tuple[object, bool]  # (symbol name, or (cause, effect) pair; sign)


@dataclass
class Workload:
    name: str
    causal: List[Tuple[str, str]]
    ont: List[Tuple[str, str]]
    sym_completions: List[str] = field(default_factory=list)
    causal_completions: List[Tuple[str, str]] = field(default_factory=list)
    disjunctions: List[Tuple[Literal, Literal]] = field(default_factory=list)
    lifted: bool = False
    cli_args: List[str] = field(default_factory=list)
    # chain only: template name -> drawn name, one map per copy
    copies: List[Dict[str, str]] = field(default_factory=list)
    text: str = ""


def _names(rng: random.Random, count: int) -> List[str]:
    """Distinct names of one fixed length, so rendering costs the same."""
    out: List[str] = []
    seen = set()
    while len(out) < count:
        name = "x" + "".join(rng.choice(string.ascii_lowercase)
                             for _ in range(6))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _render_symbol(name: str, lifted: bool) -> str:
    return "[at,%s]" % name if lifted else name


def render_literal(lit: Literal, lifted: bool = False) -> str:
    atom, positive = lit
    sign = "" if positive else "-"
    if isinstance(atom, tuple):
        return "%scause(%s,%s)" % (sign, _render_symbol(atom[0], lifted),
                                   _render_symbol(atom[1], lifted))
    return "%strue(%s)" % (sign, _render_symbol(atom, lifted))


def _render(w: Workload, rng: random.Random) -> str:
    lines = []
    if w.lifted:
        lines.append("onekind(at).")
        lines.extend("ont_object(%s,%s)." % pair for pair in w.ont)
    else:
        lines.extend("ont(%s,%s)." % pair for pair in w.ont)
    lines.extend("%s." % render_literal((pair, True), w.lifted)
                 for pair in w.causal)
    completions = ([(s, True) for s in w.sym_completions]
                   + [(pair, True) for pair in w.causal_completions])
    for lit in completions:
        pos, neg = (render_literal(lit, w.lifted),
                    render_literal((lit[0], False), w.lifted))
        lines.append("%s v %s." % tuple(rng.sample([pos, neg], 2)))
    for disj in w.disjunctions:
        lines.append("%s." % " v ".join(
            render_literal(lit, w.lifted) for lit in rng.sample(disj, 2)))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random("%s/%d" % (name, seed))
    if name == "chain":
        drawn = _names(rng, CHAIN_COPIES * len(DIAGRAM_SYMBOLS))
        copies = [dict(zip(DIAGRAM_SYMBOLS,
                           drawn[i * len(DIAGRAM_SYMBOLS):]))
                  for i in range(CHAIN_COPIES)]
        causal, ont = [], []
        for i, m in enumerate(copies):
            causal += [(m[a], m[b]) for a, b in DIAGRAM_CAUSAL]
            ont += [(m[a], m[b]) for a, b in DIAGRAM_ONT]
            if i + 1 < CHAIN_COPIES:
                causal.append((m["delta"], copies[i + 1]["alpha"]))
        w = Workload(name, causal, ont, copies=copies,
                     cli_args=["--stage", "all"])
    elif name in ("worlds_sym", "worlds_causal"):
        m = dict(zip(DIAGRAM_SYMBOLS, _names(rng, len(DIAGRAM_SYMBOLS))))
        causal = [(m[a], m[b]) for a, b in DIAGRAM_CAUSAL]
        ont = [(m[a], m[b]) for a, b in DIAGRAM_ONT]
        args = ["--stage", "all", "--format", "json", "--max-worlds", "65536"]
        if name == "worlds_sym":
            w = Workload(name, causal, ont,
                         sym_completions=[m[s] for s in SYM_COMPLETIONS],
                         disjunctions=[tuple((m[s], v) for s, v in d)
                                       for d in SYM_DISJUNCTIONS],
                         cli_args=args)
        else:
            completed = [(m[a], m[b]) for a, b in CAUSAL_COMPLETIONS]
            w = Workload(name, causal, ont,
                         sym_completions=[m[s] for s in
                                          CAUSAL_SYM_COMPLETIONS],
                         causal_completions=completed, lifted=True,
                         cli_args=args + ["--lift"])
    else:
        raise ValueError("unknown workload %r" % name)
    w.text = _render(w, rng)
    return w


WORKLOADS = ("chain", "worlds_sym", "worlds_causal")
