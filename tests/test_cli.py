"""CLI behaviour: stages, chaining, formats, exit codes."""
import json

import pytest

from causalexpl import cli
from causalexpl.cli import main
from causalexpl.parser import parse_input
from conftest import FIG_TEXT


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


def test_missing_file_exit_1(capsys, tmp_path):
    assert main([str(tmp_path / "absent.lp")]) == 1


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("ont(a).")
    assert main([str(bad)]) == 1


def test_validation_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("ont(a,a).")
    assert main([str(bad)]) == 1


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


def test_inconsistent_theory_exit_1(capsys, tmp_path):
    src = tmp_path / "inconsistent.lp"
    # the only world sets a true, but a implies b and b is false
    src.write_text("cause(a,b). true(a). -true(b).")
    assert main([str(src), "--stage", "verify"]) == 1


def test_inclusive_disjunction_adds_world(capsys, tmp_path):
    src = tmp_path / "disj.lp"
    src.write_text("true(a) v true(b).")
    code, out = run(capsys, str(src), "--stage", "all", "--format", "json")
    assert len(json.loads(out)["worlds"]) == 2
    code, out = run(capsys, str(src), "--stage", "all", "--format", "json",
                    "--inclusive-disjunction")
    assert len(json.loads(out)["worlds"]) == 3


def test_lift_flag_feeds_pipeline(capsys, tmp_path):
    src = tmp_path / "lift.lp"
    src.write_text("onekind(heard).\n"
                   "ont_object(loud_bell,bell).\n"
                   "cause(x,[heard,loud_bell]).\n")
    code, out = run(capsys, str(src), "--stage", "gen", "--lift")
    assert code == 0
    assert "ecSet(x,[heard,bell],{x})." in out.splitlines()


def test_dump_theory_round_trip(capsys, diagram_file, tmp_path):
    code, out = run(capsys, diagram_file, "--dump-theory")
    assert code == 0
    again = tmp_path / "again.lp"
    again.write_text(out)
    code, out2 = run(capsys, str(again), "--dump-theory")
    assert out2 == out


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
