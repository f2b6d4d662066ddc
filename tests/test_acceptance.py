"""Acceptance gate: one pass/fail line per criterion, printed to the terminal.

Each criterion exercises the engine end to end; timings use wall-clock
budgets generous enough for slow CI machines.
"""
import random
import time

import pytest

from causalexpl.closure import compute_closures
from causalexpl.generate import generate
from causalexpl.lifting import KindDeclarations, ObjectOntAtom, apply_restrictions, lift
from causalexpl.model import (CausalAtom, Literal, OntAtom, Symbol, Theory,
                              sym)
from causalexpl.optimize import optimize
from causalexpl.oracle import derive_all, optimal_subset
from causalexpl.parser import emit_theory, parse_input
from causalexpl.worlds import brave_cautious, enumerate_worlds, verify
from causalexpl.cli import main as cli_main
from conftest import FIG_TEXT, atom_keys, impco_pairs, random_theory


@pytest.fixture()
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _print(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line)
        else:
            print(line)
    return _print


def _criterion(announce, number, title, body):
    try:
        body()
    except BaseException:
        announce("criterion %d (%s): FAIL" % (number, title))
        raise
    announce("criterion %d (%s): PASS" % (number, title))


def _conds(*names):
    return tuple(sorted(sym(n) for n in names))


FOUR_OPTIMAL = {_conds("alpha", "gamma1"), _conds("alpha", "gamma2"),
                _conds("alpha", "beta3", "epsilon1"),
                _conds("alpha", "beta3", "epsilon2")}


def test_criterion_1_diagram_reproduction(announce, diagram):
    def body():
        start = time.monotonic()
        c = compute_closures(diagram)
        result = optimize(generate(diagram), c)
        elapsed = time.monotonic() - start
        group = {cs for s, t, cs in atom_keys(result)
                 if (s, t) == (sym("alpha"), sym("delta"))}
        assert group == FOUR_OPTIMAL
        assert elapsed < 5.0
    _criterion(announce, 1, "diagram optimal-path reproduction", body)


def test_criterion_2_pruning_example(announce, pruning_mini):
    def body():
        c = compute_closures(pruning_mini)
        result = optimize(generate(pruning_mini), c)
        group = {cs for s, t, cs in atom_keys(result)
                 if (s, t) == (sym("alpha"), sym("gamma"))}
        assert group == {_conds("alpha", "beta1")}
    _criterion(announce, 2, "redundant-explanation pruning", body)


def test_criterion_3_sibling_exclusion(announce):
    def body():
        t = Theory(
            causal=frozenset([CausalAtom(sym("x"), sym("loud_bell"))]),
            ontology=frozenset([OntAtom(sym("loud_bell"), sym("bell")),
                                OntAtom(sym("soft_bell"), sym("bell"))]))
        atoms = generate(t)
        assert not any(a.target == sym("soft_bell") for a in atoms)
    _criterion(announce, 3, "no explanation leaks to sibling concepts", body)


def test_criterion_4_binary_lifting(announce):
    def body():
        kinds = KindDeclarations(
            all_onekind=frozenset({"own"}), restricted=frozenset({"own"}),
            kind_par=frozenset({("own", "student", "book"),
                                ("own", "tom", "book")}))
        lifted = lift([ObjectOntAtom("tom", "student"),
                       ObjectOntAtom("book", "document")], kinds)
        result = apply_restrictions(lifted, kinds).atoms
        expected = frozenset({
            OntAtom(Symbol("own", ("tom", "book")),
                    Symbol("own", ("tom", "document"))),
            OntAtom(Symbol("own", ("student", "book")),
                    Symbol("own", ("tom", "book"))),
            OntAtom(Symbol("own", ("student", "book")),
                    Symbol("own", ("tom", "document"))),
        })
        assert result == expected
    _criterion(announce, 4, "binary predicate lifting triple", body)


def test_criterion_5_oracle_equivalence(announce):
    def body():
        rng = random.Random(20260824)
        start = time.monotonic()
        for _ in range(500):
            t = random_theory(rng, max_symbols=8, max_causal=10, max_ont=10)
            c = compute_closures(t)
            impco = impco_pairs(t)
            pipeline = atom_keys(optimize(generate(t), c))
            oracle = atom_keys(optimal_subset(derive_all(t), impco))
            assert pipeline == oracle, "mismatch on %s" % emit_theory(t)
        assert time.monotonic() - start < 60.0
    _criterion(announce, 5, "pipeline equals brute-force reference on 500 "
                            "random theories", body)


def _big_example_text():
    lines = []
    for prefix in ("a_", "b_"):
        for raw in FIG_TEXT.splitlines():
            line = raw.split("%", 1)[0].strip()
            if line:
                for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
                    line = line.replace(name, prefix + name)
                lines.append(line)
    lines.append("cause(a_delta,b_alpha).")
    for i in range(72):
        lines.append("ont(pad%02d,a_epsilon)." % i)
    return "\n".join(lines) + "\n"


def test_criterion_6_big_example_scalability(announce, tmp_path):
    def body():
        from causalexpl.model import symbol_universe
        src = tmp_path / "big.lp"
        src.write_text(_big_example_text())
        theory = parse_input(src.read_text()).theory
        _, symbol_e = symbol_universe(theory)
        assert len(symbol_e) >= 100

        gen_out = tmp_path / "gen.out"
        opt_out = tmp_path / "opt.out"
        start = time.monotonic()
        assert cli_main([str(src), "--stage", "gen",
                         "--out", str(gen_out)]) == 0
        assert cli_main([str(src), str(gen_out), "--stage", "opt",
                         "--out", str(opt_out)]) == 0
        assert time.monotonic() - start < 60.0

        counts = {}
        for line in gen_out.read_text().splitlines():
            head = line.split(",{", 1)[0]
            counts[head] = counts.get(head, 0) + 1
        assert max(counts.values()) > 10
        assert opt_out.read_text().strip()
    _criterion(announce, 6, "hundred-symbol benchmark via chained stages",
               body)


def test_criterion_7_verification_semantics(announce, diagram):
    def body():
        t = Theory(causal=diagram.causal, ontology=diagram.ontology,
                   facts=frozenset([Literal(sym("gamma1"), False)]))
        c = compute_closures(t)
        optimal = optimize(generate(t), c)
        worlds = enumerate_worlds(t)
        assert len(worlds) == 1
        kept = verify(optimal, worlds[0])
        conds = {cs for s, t, cs in atom_keys(kept)
                 if (s, t) == (sym("alpha"), sym("delta"))}
        assert conds == FOUR_OPTIMAL - {_conds("alpha", "gamma1")}
        # in one world every brave atom (a key) is cautious (holds in it)
        verdicts = brave_cautious({1: kept}, 1)
        assert set(verdicts) == kept
        assert all(worlds == {1} for worlds in verdicts.values())
    _criterion(announce, 7, "negative-fact verification, brave equals "
                            "cautious in a single world", body)


def test_criterion_8_invariant_suites(announce, diagram, tmp_path, capsys):
    def body():
        # optimize: antichain + idempotence on random instances
        rng = random.Random(7)
        for _ in range(40):
            t = random_theory(rng)
            c = compute_closures(t)
            impco = impco_pairs(t)
            result = optimize(generate(t), c)
            assert atom_keys(optimize(result, c)) == atom_keys(result)
            groups = {}
            for atom in result:
                groups.setdefault((atom.source, atom.target), []).append(
                    set(atom.conditions))
            for sets in groups.values():
                for x in sets:
                    for y in sets:
                        assert x is y or not x < y

            # impco reflexivity + transitivity
            from causalexpl.model import symbol_universe
            _, symbol_e = symbol_universe(t)
            assert all((s, s) in impco for s in symbol_e)
            succ = {}
            for i, j in impco:
                succ.setdefault(i, set()).add(j)
            for i, js in succ.items():
                for j in js:
                    assert succ.get(j, set()) <= js

        # parse/emit round-trip on the diagram
        first = parse_input(FIG_TEXT).theory
        assert parse_input(emit_theory(first)).theory == first

        # stage chaining equals single-shot run
        src = tmp_path / "diagram.lp"
        src.write_text(FIG_TEXT + "-true(gamma1).\n")
        gen = tmp_path / "g.out"
        opt = tmp_path / "o.out"
        assert cli_main([str(src), "--stage", "gen", "--out", str(gen)]) == 0
        assert cli_main([str(src), str(gen), "--stage", "opt",
                         "--out", str(opt)]) == 0
        assert cli_main([str(src), str(opt), "--stage", "verify"]) == 0
        verify_out = capsys.readouterr().out
        assert cli_main([str(src), "--stage", "all"]) == 0
        all_out = capsys.readouterr().out
        assert gen.read_text() + opt.read_text() + verify_out == all_out
    _criterion(announce, 8, "standalone invariant suites", body)
