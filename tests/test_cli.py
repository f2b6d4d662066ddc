"""CLI behaviour: stages, chaining, formats, exit codes."""
import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl import cli
from causalexpl.cli import main
from causalexpl.parser import emit_theory, parse_input
from conftest import FIG_TEXT, chain_theory


@pytest.fixture()
def diagram_file(tmp_path):
    path = tmp_path / "diagram.lp"
    path.write_text(FIG_TEXT)
    return str(path)


@pytest.fixture()
def diagram_neg_file(tmp_path):
    path = tmp_path / "diagram_neg.lp"
    path.write_text(FIG_TEXT + "\n-true(gamma1).\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_stage_all_lists_four_optimal_atoms(capsys, diagram_file):
    code, out = run(capsys, diagram_file, "--stage", "all")
    assert code == 0
    res = [l for l in out.splitlines()
           if l.startswith("ecSetRes(alpha,delta")]
    assert res == [
        "ecSetRes(alpha,delta,{alpha,beta3,epsilon1}).",
        "ecSetRes(alpha,delta,{alpha,beta3,epsilon2}).",
        "ecSetRes(alpha,delta,{alpha,gamma1}).",
        "ecSetRes(alpha,delta,{alpha,gamma2}).",
    ]


def test_stage_chaining_bit_identical(capsys, tmp_path, diagram_neg_file):
    gen = tmp_path / "gen.out"
    opt = tmp_path / "opt.out"

    code, _ = run(capsys, diagram_neg_file, "--stage", "gen",
                  "--out", str(gen))
    assert code == 0
    code, _ = run(capsys, diagram_neg_file, str(gen), "--stage", "opt",
                  "--out", str(opt))
    assert code == 0
    code, verify_out = run(capsys, diagram_neg_file, str(opt),
                           "--stage", "verify")
    assert code == 0

    code, all_out = run(capsys, diagram_neg_file, "--stage", "all")
    assert code == 0
    chained = gen.read_text() + opt.read_text() + verify_out
    assert chained == all_out


def test_verify_respects_negative_fact(capsys, diagram_neg_file):
    code, out = run(capsys, diagram_neg_file, "--stage", "verify")
    assert code == 0
    verified = [l for l in out.splitlines()
                if l.startswith("explVer(1,alpha,delta")]
    assert len(verified) == 3
    assert not any("gamma1" in l for l in verified)
    assert "cautious(alpha,delta,{alpha,gamma2})." in out.splitlines()


def test_json_output(capsys, diagram_neg_file):
    code, out = run(capsys, diagram_neg_file, "--stage", "all",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["worlds"]) == 1
    verdicts = {(v["from"], v["to"], tuple(v["conditions"]))
                for v in doc["verdicts"] if v["brave"] and v["cautious"]}
    assert ("alpha", "delta", ("alpha", "gamma2")) in verdicts
    assert not any(v["conditions"] == ["alpha", "gamma1"]
                   for v in doc["verdicts"])


def test_json_round_trips_into_stage_chaining(capsys, tmp_path, diagram_file):
    report = tmp_path / "gen.json"
    code, _ = run(capsys, diagram_file, "--stage", "gen",
                  "--format", "json", "--out", str(report))
    assert code == 0
    code, out = run(capsys, diagram_file, str(report), "--stage", "opt")
    assert code == 0
    code, direct = run(capsys, diagram_file, "--stage", "opt")
    assert out == direct


def test_empty_input_is_success(capsys, tmp_path):
    empty = tmp_path / "empty.lp"
    empty.write_text("% nothing here\n")
    code, out = run(capsys, str(empty), "--stage", "all")
    assert code == 0
    assert out == ""


def _recording(stream, sizes):
    """stream, with the length of each write appended to sizes."""
    write = stream.write

    def recorded(text):
        sizes.append(len(text))
        return write(text)
    stream.write = recorded
    return stream


@pytest.mark.parametrize("to_file", [False, True])
def test_report_is_written_whole_in_slices(monkeypatch, tmp_path, to_file):
    text = FIG_TEXT + "".join("true(%s) v -true(%s).\n" % (s, s) for s in
                              ("gamma1", "beta", "epsilon1", "delta", "beta3"))
    theory = tmp_path / "theory.lp"
    theory.write_text(text)
    parsed, config = parse_input(text), cli.RunConfig()
    report = cli.render_json(
        cli.run_pipeline(parsed.theory, parsed.stage, config), config)
    assert len(report) > cli._SLICE
    sizes = []
    argv = [str(theory), "--format", "json"]
    if to_file:
        out = tmp_path / "report.json"
        monkeypatch.setattr(cli, "open", lambda *a, **k: _recording(
            open(*a, **k), sizes), raising=False)
        assert main(argv + ["--out", str(out)]) == 0
        written = out.read_text()
    else:
        stdout = _recording(io.StringIO(), sizes)
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(argv) == 0
        written = stdout.getvalue()
    assert written == report
    assert len(sizes) > 1 and max(sizes) <= cli._SLICE


def test_missing_file_exit_1(capsys, tmp_path):
    assert main([str(tmp_path / "absent.lp")]) == 1


@pytest.mark.parametrize("target", ["absent_dir/out.lp", "."])
def test_unwritable_out_exit_1(capsys, tmp_path, diagram_file, target):
    """A missing directory or a directory as --out is an error message and
    exit code 1, not a traceback."""
    code = main([diagram_file, "--out", str(tmp_path / target)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(tmp_path) in err


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("ont(a).")
    assert main([str(bad)]) == 1


def test_validation_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("ont(a,a).")
    assert main([str(bad)]) == 1


def test_contradictory_causal_facts_in_two_files_exit_1(capsys, tmp_path):
    # each file parses alone; the merged theory holds cause(a,b) and
    # -cause(a,b), which no world can hold
    first, second = tmp_path / "first.lp", tmp_path / "second.lp"
    first.write_text("cause(a,b).\n")
    second.write_text("-cause(a,b).\n")
    assert main([str(first)]) == 0
    capsys.readouterr()
    assert main([str(first), str(second)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: contradictory unit facts on cause(a,b)\n"


SELF_CAUSE = "warning: self-cause: cause(a,a)\n"


@pytest.mark.parametrize("texts, flags, code, err", [
    (["cause(a,b). true(a) v -true(a) v true(b). ont(c,c)."], [], 1,
     "warning: line 1: tautology dropped: -true(a) v true(a) v true(b)\n"
     "warning: ontology contains a cycle (cyclic IS-A is almost certainly "
     "a modeling error)\n"
     "error: reflexive ontology atom: ont(c,c)\n"),
    (["cause(a,a). true(x) v -true(x). true(y) v -true(y)."],
     ["--max-worlds", "2"], 2,
     SELF_CAUSE + "error: more than max_worlds = 2 worlds survive "
     "enumeration\n"),
    (["cause(a,a). true(a) v true(b). -true(a). -true(b)."], [], 1,
     SELF_CAUSE + "error: inconsistent premises: no world survives\n"),
    (["cause(a,a). cause(a,b).", "ecSetRes(zz,qq,{zz})."], [], 1,
     SELF_CAUSE + "error: stage input zz explains qq with qq, zz, which "
     "the theory does not mention\n"),
    ([" ".join("cause(s%d,s%d)." % (i, i + 1) for i in range(21))],
     ["--oracle"], 1, "error: oracle refuses 22 symbols (bound 20)\n"),
], ids=["parse-then-validation", "overflow", "no-world", "stage-input",
        "oracle-bound"])
def test_warnings_are_printed_before_a_failure(capsys, tmp_path, texts,
                                               flags, code, err):
    files = [tmp_path / ("input%d.lp" % n) for n in range(len(texts))]
    for path, text in zip(files, texts):
        path.write_text(text + "\n")
    assert main(list(map(str, files)) + flags) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("text, code, err", [
    ("cause(a b).", 1, "error: line 1: expected ')', found 'b'\n"),
    ("cause(a,b). ecSet(a,b,{b}).", 1,
     "error: line 1: explaining symbol must belong to its condition set\n"),
    ("cause(a,b). true(a) v ont(a,b).", 1, "error: line 1: only true/cause "
     "literals may appear in a disjunction\n"),
    ("cause(p,x). cause([p,a],y).", 0, "warning: name 'p' used both as a "
     "propositional constant and a predicate\n"),
], ids=["missing-comma", "source-not-a-condition", "ont-in-disjunction",
        "constant-and-predicate"])
def test_input_faults_exit_code_and_stderr(capsys, tmp_path, text, code, err):
    path = tmp_path / "input.lp"
    path.write_text(text + "\n")
    assert main([str(path)]) == code
    assert capsys.readouterr().err == err


def test_world_overflow_exit_2(capsys, tmp_path):
    lines = "".join("true(c%d) v -true(c%d).\n" % (i, i) for i in range(12))
    src = tmp_path / "many.lp"
    src.write_text(lines)
    assert main([str(src), "--stage", "verify", "--max-worlds", "8"]) == 2


def test_max_worlds_counts_surviving_worlds(capsys, tmp_path):
    # 4096 combinations, but the unit facts leave only two worlds
    lines = "".join("true(c%d) v -true(c%d).\n" % (i, i) for i in range(12))
    lines += "".join("true(c%d).\n" % i for i in range(11))
    src = tmp_path / "fixed.lp"
    src.write_text(lines)
    code, out = run(capsys, str(src), "--stage", "verify", "--max-worlds", "2",
                    "--format", "json")
    assert code == 0
    assert len(json.loads(out)["worlds"]) == 2
    assert main([str(src), "--stage", "verify", "--max-worlds", "1"]) == 2


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_max_worlds_below_one_exit_1(capsys, diagram_file, bound):
    assert main([diagram_file, "--max-worlds", bound]) == 1
    assert "--max-worlds" in capsys.readouterr().err


def test_chained_verify_skips_generation_of_base(capsys, monkeypatch,
                                                 tmp_path):
    src = tmp_path / "choice.lp"
    src.write_text(FIG_TEXT + "\ncause(a,b) v cause(c,b).\n-true(gamma1).\n")
    opt = tmp_path / "opt.lp"
    assert main([str(src), "--stage", "opt", "--out", str(opt)]) == 0
    code, direct = run(capsys, str(src), "--stage", "verify")
    assert code == 0

    base_causal = parse_input(src.read_text()).theory.causal
    generated_for = []

    def counting_generate(theory, closures=None):
        generated_for.append(theory.causal)
        return generate(theory, closures)

    generate = cli.generate
    monkeypatch.setattr(cli, "generate", counting_generate)
    code, chained = run(capsys, str(src), str(opt), "--stage", "verify")
    assert code == 0
    assert chained == direct
    assert len(generated_for) == 2  # one per world's causal set
    assert base_causal not in generated_for


def _count_stage_calls(monkeypatch):
    """Wrap cli.generate and cli.optimize; returns the causal sets generate
    ran for and the atom sets optimize was given."""
    generated_for, optimized = [], []
    generate, optimize = cli.generate, cli.optimize

    def counting_generate(theory, closures=None):
        generated_for.append(theory.causal)
        return generate(theory, closures)

    def counting_optimize(atoms, closures):
        optimized.append(atoms)
        return optimize(atoms, closures)

    monkeypatch.setattr(cli, "generate", counting_generate)
    monkeypatch.setattr(cli, "optimize", counting_optimize)
    return generated_for, optimized


@pytest.mark.parametrize("stage", ["verify", "all"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_json_opt_report_chains(capsys, monkeypatch, tmp_path, stage, fmt):
    src = tmp_path / "choice.lp"
    src.write_text(FIG_TEXT + "\ncause(a,b) v cause(c,b).\n-true(gamma1).\n")
    report = tmp_path / "opt.json"
    assert main([str(src), "--stage", "opt", "--format", "json",
                 "--out", str(report)]) == 0
    code, direct = run(capsys, str(src), "--stage", stage, "--format", fmt)
    assert code == 0

    base_causal = parse_input(src.read_text()).theory.causal
    generated_for, optimized = _count_stage_calls(monkeypatch)
    code, chained = run(capsys, str(src), str(report), "--stage", stage,
                        "--format", fmt)
    assert code == 0
    assert chained == direct
    # the optimal atoms come from the report; only --stage all generates
    # for the base causal set, because it emits the generated atoms
    non_base = [c for c in generated_for if c != base_causal]
    assert len(non_base) == 2  # one per world's causal set
    assert generated_for.count(base_causal) == (stage == "all")
    assert len(optimized) == len(non_base)


def test_gen_output_chains_into_verify(capsys, monkeypatch, tmp_path,
                                       diagram_neg_file):
    gen = tmp_path / "gen.out"
    assert main([diagram_neg_file, "--stage", "gen", "--out", str(gen)]) == 0
    code, direct = run(capsys, diagram_neg_file, "--stage", "verify")
    assert code == 0

    generated_for, optimized = _count_stage_calls(monkeypatch)
    code, chained = run(capsys, diagram_neg_file, str(gen), "--stage", "verify")
    assert code == 0
    assert chained == direct
    assert generated_for == []
    assert optimized == [frozenset(parse_input(gen.read_text())
                                   .stage.generated)]


def test_explver_stage_line_exit_1(capsys, tmp_path, diagram_file):
    stage = tmp_path / "verify.lp"
    stage.write_text("explVer(1,alpha,beta,{alpha}).\n")
    assert main([diagram_file, str(stage), "--stage", "verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "unknown statement 'explVer'" in err


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_json_sections_carry_their_status(capsys, diagram_neg_file, oracle):
    code, out = run(capsys, diagram_neg_file, "--stage", "all",
                    "--format", "json", *oracle)
    assert code == 0
    doc = json.loads(out)
    sections = [("generated", doc["explanations"]),
                ("optimal", doc["optimal"])]
    sections += [("verified", w["explanations"])
                 for w in doc.get("worlds", [])]
    assert len(sections) == (2 if oracle else 3)
    for status, entries in sections:
        assert entries
        assert {e["status"] for e in entries} == {status}


def test_inconsistent_theory_exit_1(capsys, tmp_path):
    src = tmp_path / "inconsistent.lp"
    # the only world sets a true, but a implies b and b is false
    src.write_text("cause(a,b). true(a). -true(b).")
    assert main([str(src), "--stage", "verify"]) == 1


def test_deep_is_a_chain_explains_every_link(capsys, tmp_path):
    """cause(x, s0) on a 300-link IS-A chain: x explains each si with {x},
    and the one world verifies all 301 atoms, each brave and cautious."""
    src = tmp_path / "deep.lp"
    src.write_text("".join("ont(s%d,s%d).\n" % (i, i + 1) for i in range(300))
                   + "cause(x,s0).\n")
    code, out = run(capsys, str(src), "--stage", "all")
    assert code == 0
    want = sorted("x,s%d,{x})." % i for i in range(301))
    lines = out.splitlines()
    assert len(lines) == 1505
    for head in ("ecSet(", "ecSetRes(", "explVer(1,", "brave(", "cautious("):
        assert sorted(line[len(head):] for line in lines
                      if line.startswith(head)) == want


def test_inclusive_disjunction_adds_world(capsys, tmp_path):
    src = tmp_path / "disj.lp"
    src.write_text("true(a) v true(b).")
    code, out = run(capsys, str(src), "--stage", "all", "--format", "json")
    assert len(json.loads(out)["worlds"]) == 2
    code, out = run(capsys, str(src), "--stage", "all", "--format", "json",
                    "--inclusive-disjunction")
    assert len(json.loads(out)["worlds"]) == 3


def test_wide_inclusive_clause_overflows_at_once(tmp_path):
    """40 inclusive literals have 2^40 - 1 options: the walk takes them one
    at a time, so the sixth surviving world ends the run."""
    src = tmp_path / "wide.lp"
    src.write_text(" v ".join("true(x%d)" % i for i in range(40)) + ".\n")
    path = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from causalexpl.cli import main; sys.exit(main())",
         str(src), "--inclusive-disjunction", "--max-worlds", "5"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert "max_worlds = 5" in proc.stderr


def test_lift_flag_feeds_pipeline(capsys, tmp_path):
    src = tmp_path / "lift.lp"
    src.write_text("onekind(heard).\n"
                   "ont_object(loud_bell,bell).\n"
                   "cause(x,[heard,loud_bell]).\n")
    code, out = run(capsys, str(src), "--stage", "gen", "--lift")
    assert code == 0
    assert "ecSet(x,[heard,bell],{x})." in out.splitlines()


def test_undeclared_lifted_predicate_exit_1(capsys, tmp_path):
    # validate_theory alone judges a predicate with no kind declaration
    src = tmp_path / "mystery.lp"
    src.write_text("cause(x,[mystery,a]). onekind(heard).\n")
    assert main([str(src), "--lift"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: structured symbol [mystery,a] uses "
                            "predicate 'mystery' with no kind declaration\n")


CYCLE = ("warning: ontology contains a cycle (cyclic IS-A is almost "
         "certainly a modeling error)\n")


def test_is_a_cycle_made_by_lifting_is_warned_about(capsys, tmp_path):
    # the cycle is in the object links alone, so only a lifted run uses it;
    # validation's warnings come before lifting's, and a cycle in both the
    # written and the lifted links is one warning
    src = tmp_path / "cycle.lp"
    src.write_text("onekind(p). restr(q). ont_object(a,b). "
                   "ont_object(b,a). cause([p,a],x).\n")
    restricted = ("warning: restricted predicate 'q' has no kindPar entries; "
                  "all its atoms are dropped\n")
    assert main([str(src), "--stage", "gen"]) == 0
    assert capsys.readouterr().err == ""
    assert main([str(src), "--stage", "gen", "--lift"]) == 0
    assert capsys.readouterr().err == CYCLE + restricted
    both = tmp_path / "both.lp"
    both.write_text(src.read_text() + "ont(c,d). ont(d,c).\n")
    assert main([str(both), "--stage", "gen", "--lift"]) == 0
    assert capsys.readouterr().err == CYCLE + restricted


def test_dump_theory_round_trip(capsys, diagram_file, tmp_path):
    code, out = run(capsys, diagram_file, "--dump-theory")
    assert code == 0
    again = tmp_path / "again.lp"
    again.write_text(out)
    code, out2 = run(capsys, str(again), "--dump-theory")
    assert out2 == out


def test_dump_theory_prints_parse_warnings(capsys, tmp_path):
    src = tmp_path / "taut.lp"
    src.write_text("cause(a,b). true(a) v -true(a) v true(b).\n")
    warning = ("warning: line 1: tautology dropped: "
               "-true(a) v true(a) v true(b)\n")
    for argv in (["--dump-theory"], ["--stage", "gen"]):
        assert main([str(src)] + argv) == 0
        assert capsys.readouterr().err == warning


def test_oracle_mode_matches_pipeline_optimal(capsys, diagram_file):
    code, oracle_out = run(capsys, diagram_file, "--stage", "opt", "--oracle")
    assert code == 0
    code, pipe_out = run(capsys, diagram_file, "--stage", "opt")
    oracle_res = {l for l in oracle_out.splitlines() if l.startswith("ecSetRes")}
    pipe_res = {l for l in pipe_out.splitlines() if l.startswith("ecSetRes")}
    assert oracle_res == pipe_res


def test_causal_disjunct_reruns_generation_per_world(capsys, tmp_path):
    src = tmp_path / "choice.lp"
    src.write_text("cause(a,b) v cause(c,b).\n")
    code, out = run(capsys, str(src), "--stage", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    per_world = {w["index"]: {(e["from"], e["to"]) for e in w["explanations"]}
                 for w in doc["worlds"]}
    assert per_world[1] != per_world[2]
    verdicts = {(v["from"], v["to"]): (v["brave"], v["cautious"])
                for v in doc["verdicts"]}
    assert verdicts[("a", "b")] == (True, False)
    assert verdicts[("c", "b")] == (True, False)


def test_merge_keeps_kind_declarations_of_every_file(capsys, tmp_path):
    kinds = tmp_path / "kinds.lp"
    kinds.write_text("onekind(heard).\n")
    facts = tmp_path / "facts.lp"
    facts.write_text("ont_object(loud_bell,bell).\n"
                     "cause(x,[heard,loud_bell]).\n")
    outputs = [run(capsys, *files, "--stage", "gen", "--lift")
               for files in ((str(kinds), str(facts)),
                             (str(facts), str(kinds)))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert "ecSet(x,[heard,bell],{x})." in outputs[0][1].splitlines()

    clash = tmp_path / "clash.lp"
    clash.write_text("allkind(heard).\n")
    assert main([str(kinds), str(facts), str(clash), "--lift"]) == 1
    assert "declared both onekind and allkind" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '{"explanations":[{"from":"a"}]}',
    '{"optimal":[{"from":"a"}]}',
    '{"explanations":"x"}',
    '{"explanations":[{"from":"[","to":"b","conditions":["["]}]}',
    '{"explanations":[{"from":"alpha","to":"beta","conditions":[]}]}',
    '{"worlds":' + "[" * 100000,
], ids=["missing-key", "optimal-missing-key", "not-a-list", "bad-symbol",
        "empty-conditions", "deeply-nested"])
def test_malformed_json_stage_input_exit_1(capsys, tmp_path, diagram_file,
                                           doc):
    report = tmp_path / "stage.json"
    report.write_text(doc)
    assert main([diagram_file, str(report), "--stage", "opt"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_stage_input_outside_the_theory_exit_1(capsys, tmp_path):
    theory = tmp_path / "theory.lp"
    theory.write_text("cause(a,b).\n")
    stage = tmp_path / "opt.lp"
    stage.write_text("ecSetRes(zz,qq,{zz}).\n")
    assert main([str(theory), str(stage), "--stage", "verify"]) == 1
    assert "zz explains qq with qq, zz," in capsys.readouterr().err


@pytest.mark.parametrize("lines", [
    ["ecSetRes(zz,qq,{zz}).", "ecSetRes(yy,pp,{yy})."],
    ["ecSetRes(yy,pp,{yy}).", "ecSetRes(zz,qq,{zz})."]])
def test_stage_input_error_names_the_first_atom_in_sort_order(
        capsys, tmp_path, lines):
    theory = tmp_path / "theory.lp"
    theory.write_text("cause(a,b).\n")
    stage = tmp_path / "opt.lp"
    stage.write_text("\n".join(lines) + "\n")
    assert main([str(theory), str(stage), "--stage", "verify"]) == 1
    assert capsys.readouterr().err == (
        "error: stage input yy explains pp with pp, yy, which the theory "
        "does not mention\n")


@pytest.mark.parametrize("argv", [
    ["--stage", "bogus", "x.lp"], ["--max-worlds", "abc", "x.lp"],
    ["--no-such-option", "x.lp"], []],
    ids=["bad-choice", "bad-int", "unknown-option", "no-file"])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: causalexpl") and "error: " in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: causalexpl")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, diagram_file,
                                                  enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main([diagram_file]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# -- exit-code fuzzing ----------------------------------------------------------

_FUZZ_SYMBOLS = ["a", "b", "c", "[p,a]", "[p,b]"]
_fuzz_symbol = st.sampled_from(_FUZZ_SYMBOLS)


@st.composite
def _fuzz_statement(draw):
    s = draw(st.lists(_fuzz_symbol, min_size=3, max_size=3))
    literal = draw(st.sampled_from(["true(%s)", "-true(%s)", "cause(%s,%s)",
                                    "-cause(%s,%s)"]))
    literal = literal % tuple(s[:literal.count("%s")])
    return draw(st.sampled_from([
        "cause(%s,%s)." % (s[0], s[1]), "ont(%s,%s)." % (s[0], s[1]),
        "symbol(%s)." % s[0], literal + ".",
        "%s v %s." % (literal, literal.lstrip("-")),
        "%s v true(%s)." % (literal, s[2]),
        "onekind(p).", "allkind(p).", "ont_object(a,b).", "ont_object(b,c).",
        "ecSet(%s,%s,{%s,%s})." % (s[0], s[1], s[0], s[2]),
        "ecSetRes(%s,%s,{%s})." % (s[0], s[1], s[0]),
        "explVer(1,%s,%s,{%s})." % (s[0], s[1], s[0]),
        draw(st.text(alphabet="acpv()[]{},.-% \n", max_size=10)),
    ]))


_json_symbol = st.one_of(st.sampled_from(_FUZZ_SYMBOLS + ["[", "a%", ""]),
                         st.integers(), st.none())
_json_entry = st.one_of(
    st.fixed_dictionaries({}, optional={
        "from": _json_symbol, "to": _json_symbol,
        "conditions": st.one_of(st.lists(_json_symbol, max_size=3),
                                _json_symbol),
        "status": st.sampled_from(["generated", "optimal", "verified"])}),
    _json_symbol)
_json_world = st.one_of(
    st.fixed_dictionaries({}, optional={
        "index": st.one_of(st.integers(-1, 3), st.booleans(), st.text()),
        "explanations": st.one_of(st.lists(_json_entry, max_size=3),
                                  _json_entry)}),
    _json_symbol)
_json_report = st.fixed_dictionaries({}, optional={
    "explanations": st.one_of(st.lists(_json_entry, max_size=3), _json_entry),
    "optimal": st.one_of(st.lists(_json_entry, max_size=3), _json_entry),
    "worlds": st.one_of(st.lists(_json_world, max_size=2), _json_world)})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(facts=st.lists(_fuzz_statement(), max_size=8),
       report=st.one_of(st.none(), _json_report),
       flags=st.lists(st.sampled_from([
           "--stage=gen", "--stage=opt", "--stage=verify", "--format=json",
           "--lift", "--inclusive-disjunction", "--oracle", "--dump-theory",
           "--max-worlds=0", "--max-worlds=2"]), max_size=3, unique=True))
def test_every_input_maps_to_an_exit_code(fuzz_dir, facts, report, flags):
    theory = fuzz_dir / "theory.lp"
    theory.write_text("\n".join(facts))
    files = [str(theory)]
    if report is not None:
        files.append(str(fuzz_dir / "report.json"))
        (fuzz_dir / "report.json").write_text(json.dumps(report))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(files + flags)
    assert code in (0, 1, 2), err.getvalue()


def _count_closures(monkeypatch):
    """Count compute_closures calls from cli and worlds."""
    built = []
    compute_closures = cli.compute_closures

    def counting_closures(theory):
        built.append(theory.causal)
        return compute_closures(theory)

    monkeypatch.setattr(cli, "compute_closures", counting_closures)
    monkeypatch.setattr("causalexpl.worlds.compute_closures",
                        counting_closures)
    return built


def test_chained_verify_builds_no_unread_base_closures(capsys, monkeypatch,
                                                       tmp_path):
    # no world keeps the base causal set, and the optimal atoms are given
    src = tmp_path / "t.lp"
    src.write_text("cause(a,b). cause(c,d). -cause(a,b) v -cause(c,d).\n")
    opt = tmp_path / "opt.lp"
    assert main([str(src), "--stage", "opt", "--out", str(opt)]) == 0
    code, direct = run(capsys, str(src), "--stage", "verify")
    assert code == 0

    built = _count_closures(monkeypatch)
    code, chained = run(capsys, str(src), str(opt), "--stage", "verify")
    assert code == 0
    assert chained == direct
    assert len(built) == 2  # one per world's causal set
    assert parse_input(src.read_text()).theory.causal not in built


@pytest.mark.parametrize("stage, functor", [("gen", "ecSet"),
                                            ("opt", "ecSetRes")])
def test_stage_input_of_the_last_stage_builds_no_closures(
        capsys, monkeypatch, tmp_path, diagram_file, stage, functor):
    given = tmp_path / "stage.lp"
    assert main([diagram_file, "--stage", stage, "--out", str(given)]) == 0
    assert given.read_text().startswith(functor + "(")

    built = _count_closures(monkeypatch)
    code, out = run(capsys, diagram_file, str(given), "--stage", stage)
    assert code == 0
    assert out == given.read_text()
    assert built == []


def test_reader_closing_stdout_early_is_success(tmp_path):
    """`causalexpl chain.lp | head` ends the run quietly with exit 0."""
    theory = tmp_path / "chain.lp"
    theory.write_text(emit_theory(chain_theory(3)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    with subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from causalexpl.cli import main; sys.exit(main())",
             str(theory)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src)) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
