"""Correctness checks on the CLI's output, made apart from the pipeline.

The reference for explanation atoms is the brute-force oracle
(``causalexpl.oracle``) with the implication closure recomputed here with
networkx.  The reference for worlds is this module's own enumeration of
choices, truth propagation and clause checks.  Atoms are compared as keys
``(source, target, frozenset(conditions))`` of rendered symbol names, and
worlds as a set of chosen-literal sets, so that output order and duplicate
worlds do not matter.
"""
from __future__ import annotations

import json
import os
import re
import sys
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import networkx as nx

from inputs import (CHAIN_COPIES, DIAGRAM_CAUSAL, DIAGRAM_ONT,
                    DIAGRAM_SYMBOLS, Workload, render_literal)

Key = Tuple[str, str, FrozenSet[str]]


class CheckError(AssertionError):
    """The program's output disagrees with the reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# -- references ------------------------------------------------------------

def impco(causal: Iterable[Tuple[str, str]], ont: Iterable[Tuple[str, str]]
          ) -> Set[Tuple[str, str]]:
    """Reflexive-transitive closure of the cause and IS-A edges."""
    g = nx.DiGraph()
    g.add_edges_from(causal)
    g.add_edges_from(ont)
    return {(u, v) for u in g for v in nx.descendants(g, u) | {u}}


def _symbol(name: str):
    from causalexpl.model import Symbol
    return Symbol(name)


def _atoms(keys: Iterable[Key]):
    from causalexpl.model import ExplanationAtom
    return frozenset(
        ExplanationAtom(_symbol(s), _symbol(t),
                        tuple(sorted(_symbol(c) for c in conds)))
        for s, t, conds in keys)


def _keys(atoms) -> Set[Key]:
    return {(str(a.source), str(a.target), frozenset(map(str, a.conditions)))
            for a in atoms}


def _closure(relation: Set[Tuple[str, str]]):
    return frozenset((_symbol(a), _symbol(b)) for a, b in relation)


def optimal_of(keys: Iterable[Key], relation: Set[Tuple[str, str]]
               ) -> Set[Key]:
    """The oracle's optimal subset of the given atoms."""
    from causalexpl.oracle import optimal_subset
    return _keys(optimal_subset(_atoms(keys), _closure(relation)))


def oracle_optimal(causal: Iterable[Tuple[str, str]],
                   ont: Iterable[Tuple[str, str]]) -> Set[Key]:
    """Brute-force derivation and optimal subset of a flat theory."""
    from causalexpl.model import CausalAtom, OntAtom, Theory
    from causalexpl.oracle import derive_all, optimal_subset
    causal, ont = list(causal), list(ont)
    t = Theory(causal=frozenset(CausalAtom(_symbol(a), _symbol(b))
                                for a, b in causal),
               ontology=frozenset(OntAtom(_symbol(a), _symbol(b))
                                  for a, b in ont))
    return _keys(optimal_subset(derive_all(t, max_symbols=64),
                                _closure(impco(causal, ont))))


def enumerate_worlds(w: Workload):
    """Distinct worlds of a workload, by backtracking over its choices.

    Maps each surviving chosen-literal set to (truth, causal set).
    """
    axes: List[List[tuple]] = [list(d) for d in w.disjunctions]
    axes += [[(s, True), (s, False)] for s in w.sym_completions]
    axes += [[(p, True), (p, False)] for p in w.causal_completions]

    leaves: Set[FrozenSet] = set()
    assignment: Dict[object, bool] = {}

    def walk(depth: int):
        if depth == len(axes):
            leaves.add(frozenset(assignment.items()))
            return
        for atom, value in axes[depth]:
            known = assignment.get(atom)
            if known is None:
                assignment[atom] = value
                walk(depth + 1)
                del assignment[atom]
            elif known == value:
                walk(depth + 1)

    walk(0)

    closures: Dict[FrozenSet, Tuple[dict, dict]] = {}
    worlds = {}
    for chosen in leaves:
        causal = set(w.causal)
        for atom, value in chosen:
            if isinstance(atom, tuple):
                (causal.add if value else causal.discard)(atom)
        causal = frozenset(causal)
        if causal not in closures:
            succ: Dict[str, set] = {}
            pred: Dict[str, set] = {}
            for a, b in impco(causal, w.ont):
                succ.setdefault(a, set()).add(b)
                pred.setdefault(b, set()).add(a)
            closures[causal] = (succ, pred)
        succ, pred = closures[causal]
        truth: Dict[str, bool] = {}
        forced = [(s, v) for s, v in chosen if not isinstance(s, tuple)]
        consistent = True
        for s, value in forced:
            for other in (succ if value else pred).get(s, {s}):
                if truth.setdefault(other, value) != value:
                    consistent = False
        if not consistent:
            continue
        if any(all(truth.get(s) is (not v) for s, v in d)
               for d in w.disjunctions):
            continue
        worlds[chosen] = (truth, causal)
    return worlds


# -- output parsing ----------------------------------------------------------

_LINE = re.compile(r"^(\w+)\((?:(\d+),)?([^,{]+),([^,{]+),\{([^}]*)\}\)\.$")


def parse_text(out: str) -> Dict[str, object]:
    """Text output of a flat theory: functor -> keys (explVer by world)."""
    found: Dict[str, object] = {"ecSet": set(), "ecSetRes": set(),
                                "brave": set(), "cautious": set(),
                                "explVer": {}}
    for line in out.splitlines():
        m = _LINE.match(line)
        _require(m is not None and m.group(1) in found,
                 "unreadable output line %r" % line)
        functor, index, s, t, conds = m.groups()
        key = (s, t, frozenset(conds.split(",")))
        if functor == "explVer":
            found["explVer"].setdefault(int(index), set()).add(key)
        else:
            found[functor].add(key)
    return found


def _json_key(entry: dict, rename) -> Key:
    return (rename(entry["from"]), rename(entry["to"]),
            frozenset(rename(c) for c in entry["conditions"]))


def _unlift(name: str) -> str:
    _require(name.startswith("[at,") and name.endswith("]"),
             "lifted output has a flat symbol %r" % name)
    return name[4:-1]


def _unlift_literal(text: str) -> str:
    return re.sub(r"\[at,(\w+)\]", r"\1", text)


# -- checks -------------------------------------------------------------------

def chain_template_oracle() -> Dict[str, object]:
    """The oracle's optimal set for a two-copy chain, on template names."""
    names = [{s: "t%d_%s" % (i, s) for s in DIAGRAM_SYMBOLS}
             for i in range(2)]
    causal = [(m[a], m[b]) for m in names for a, b in DIAGRAM_CAUSAL]
    causal.append((names[0]["delta"], names[1]["alpha"]))
    ont = [(m[a], m[b]) for m in names for a, b in DIAGRAM_ONT]
    return {"names": names, "optimal": oracle_optimal(causal, ont)}


def check_chain(w: Workload, out: str, reference: Dict[str, object]) -> int:
    """Checks a chain output; returns the number of distinct verdict atoms."""
    found = parse_text(out)
    res = found["ecSetRes"]
    _require(res == optimal_of(found["ecSet"], impco(w.causal, w.ont)),
             "ecSetRes is not the optimal subset of the emitted ecSet")
    for first in range(CHAIN_COPIES - 1):
        rename = {}
        for i in range(2):
            for s in DIAGRAM_SYMBOLS:
                rename[reference["names"][i][s]] = w.copies[first + i][s]
        expected = {(rename[s], rename[t], frozenset(rename[c] for c in cs))
                    for s, t, cs in reference["optimal"]}
        inside = set(rename.values())
        got = {k for k in res if k[0] in inside and k[1] in inside}
        _require(got == expected,
                 "ecSetRes within copies %d and %d differs from the oracle's "
                 "two-copy chain (%d missing, %d extra)"
                 % (first, first + 1, len(expected - got), len(got - expected)))
    _require(set(found["explVer"]) == {1}, "chain must have exactly world 1")
    _require(found["explVer"][1] == res, "explVer(1) differs from ecSetRes")
    _require(found["brave"] == res and found["cautious"] == res,
             "brave/cautious differ from ecSetRes in the only world")
    return len(found["brave"])


def worlds_reference(w: Workload) -> Dict[str, object]:
    """Expected worlds and, per causal set, the oracle's optimal atoms."""
    worlds = enumerate_worlds(w)
    optimal = {}
    for _, causal in worlds.values():
        if causal not in optimal:
            optimal[causal] = oracle_optimal(causal, w.ont)
    base = frozenset(w.causal)
    if base not in optimal:
        optimal[base] = oracle_optimal(base, w.ont)
    return {"worlds": worlds, "optimal": optimal}


def check_worlds(w: Workload, out: str, reference: Dict[str, object]) -> int:
    """Checks a worlds_* JSON output; returns the number of brave atoms."""
    doc = json.loads(out)
    rename = _unlift if w.lifted else (lambda name: name)
    literal = _unlift_literal if w.lifted else (lambda text: text)
    expected = {}
    for chosen, (truth, causal) in reference["worlds"].items():
        facts = frozenset(render_literal(lit) for lit in chosen)
        verified = {k for k in reference["optimal"][causal]
                    if not any(truth.get(c) is False for c in k[2])}
        expected[facts] = verified

    optimal = {_json_key(e, rename) for e in doc["optimal"]}
    _require(optimal == reference["optimal"][frozenset(w.causal)],
             "optimal atoms differ from the oracle's on the base theory")

    got_worlds: Dict[int, Set[Key]] = {}
    facts_seen = set()
    for world in doc["worlds"]:
        facts = frozenset(literal(f) for f in world["facts"])
        _require(facts in expected,
                 "world %d (%s) is not a world of the reference enumeration"
                 % (world["index"], sorted(facts)))
        _require(world["index"] not in got_worlds,
                 "world index %d repeats" % world["index"])
        atoms = {_json_key(e, rename) for e in world["explanations"]}
        _require(atoms == expected[facts],
                 "world %d: verified atoms differ from the oracle's "
                 "(%d missing, %d extra)"
                 % (world["index"], len(expected[facts] - atoms),
                    len(atoms - expected[facts])))
        got_worlds[world["index"]] = atoms
        facts_seen.add(facts)
    _require(facts_seen == set(expected),
             "%d reference worlds are missing"
             % len(set(expected) - facts_seen))

    holds: Dict[Key, Set[int]] = {}
    for index, atoms in got_worlds.items():
        for key in atoms:
            holds.setdefault(key, set()).add(index)
    verdicts = {}
    for v in doc["verdicts"]:
        key = _json_key(v, rename)
        _require(key not in verdicts, "verdict %s repeats" % (key,))
        verdicts[key] = v
    _require(set(verdicts) == set(holds),
             "verdicts do not cover exactly the verified atoms")
    for key, v in verdicts.items():
        _require(v["brave"] is True and
                 v["cautious"] is (holds[key] == set(got_worlds)) and
                 sorted(v["worlds"]) == sorted(holds[key]),
                 "verdict for %s disagrees with the per-world sets" % (key,))
    return sum(1 for v in verdicts.values() if v["brave"])


def reference_for(w: Workload) -> Dict[str, object]:
    return chain_template_oracle() if w.name == "chain" else \
        worlds_reference(w)


def check_output(w: Workload, out: str, reference: Dict[str, object]) -> int:
    """Raises CheckError on a wrong output; returns distinct brave atoms."""
    if w.name == "chain":
        return check_chain(w, out, reference)
    return check_worlds(w, out, reference)


def main(argv=None) -> int:
    """Check one output file; print the number of distinct brave atoms."""
    import argparse
    p = argparse.ArgumentParser(description="Check a causalexpl output.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("output")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from inputs import make_workload
    w = make_workload(args.workload, args.seed)
    with open(args.output) as fh:
        out = fh.read()
    try:
        brave = check_output(w, out, reference_for(w))
    except CheckError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"brave": brave}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
