"""The report writers against references built the way json.dumps and the
per-world sorts built them: --format json is byte-identical to
json.dumps(doc, indent=2), and text output to the per-world sorted lines."""
import collections
import functools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalexpl.cli import RunConfig, render_json, render_text, run_pipeline
from causalexpl import cli, model
from causalexpl.model import Literal, atom_sort_key
from causalexpl.parser import STAGE_SECTIONS, parse_input
from conftest import FIG_TEXT, chain_theory, chosen_literals, random_theory

STAGES = ("gen", "opt", "verify", "all")


# -- references -----------------------------------------------------------------

def _atom_doc(atom, status):
    return {"from": str(atom.source), "to": str(atom.target),
            "conditions": sorted(str(s) for s in atom.conditions),
            "status": status}


def reference_doc(result, config):
    """The report document, each world's atoms sorted on their own."""
    doc = {"stage": config.stage}
    if result.warnings:
        doc["warnings"] = list(result.warnings)
    for section in STAGE_SECTIONS:
        if config.stage in section.stages or config.oracle:
            doc[section.key] = [
                _atom_doc(a, section.status) for a in
                sorted(getattr(result, section.field), key=atom_sort_key)]
    if config.stage in ("verify", "all") and not config.oracle:
        doc["worlds"] = [
            {"index": w.index, "facts": sorted(map(str, chosen_literals(w))),
             "explanations": [_atom_doc(a, "verified") for a in
                              sorted(result.verified.get(w.index, ()),
                                     key=atom_sort_key)]}
            for w in result.worlds]
        doc["verdicts"] = [
            {"from": str(a.source), "to": str(a.target),
             "conditions": sorted(str(s) for s in a.conditions),
             "brave": True,
             "cautious": len(result.verdicts[a]) == len(result.worlds),
             "worlds": sorted(result.verdicts[a])}
            for a in sorted(result.verdicts, key=atom_sort_key)]
    return doc


def _body(atom):
    return "%s,%s,{%s}" % (atom.source, atom.target,
                           ",".join(sorted(str(s) for s in atom.conditions)))


def reference_text(result, config):
    lines = []
    for section in STAGE_SECTIONS:
        if config.stage in section.stages or config.oracle:
            lines += ["%s(%s)." % (section.functor, _body(a)) for a in
                      sorted(getattr(result, section.field),
                             key=atom_sort_key)]
    if config.stage in ("verify", "all") and not config.oracle:
        for index in sorted(result.verified):
            lines += ["explVer(%d,%s)." % (index, _body(a)) for a in
                      sorted(result.verified[index], key=atom_sort_key)]
        for a in sorted(result.verdicts, key=atom_sort_key):
            lines += ["brave(%s)." % _body(a)] + \
                (["cautious(%s)." % _body(a)]
                 if len(result.verdicts[a]) == len(result.worlds) else [])
    return "\n".join(lines) + ("\n" if lines else "")


def _check(theory, stage, oracle=False, lifting=False):
    config = RunConfig(stage=stage, oracle=oracle, lifting=lifting)
    result = run_pipeline(theory, parse_input("").stage, config)
    assert render_json(result, config) == \
        json.dumps(reference_doc(result, config), indent=2) + "\n"
    assert render_text(result, config) == reference_text(result, config)
    return result


# -- fixed cases --------------------------------------------------------------

FIXED = {
    "diagram": FIG_TEXT + "-true(gamma1). true(beta) v -true(beta).\n"
                          "true(epsilon1) v true(gamma2).\n",
    # world 2 verifies no atom
    "refuted": "cause(a,b). true(a) v -true(a).\n",
    # the one world chooses no fact
    "no-facts": "cause(a,b).\n",
    "no-atoms": "symbol(a).\n",
    "empty": "",
    # self-cause and ontology cycle warnings
    "warnings": "cause(a,a). cause(a,b). ont(b,c). ont(c,b).\n",
}

LIFTED = ("onekind(at). ont_object(b,c). cause([at,a],[at,b]). "
          "cause([at,c],[at,d]). true([at,a]) v -true([at,a]). "
          "cause([at,a],[at,c]) v -cause([at,a],[at,c]).\n")


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_reports_match_the_reference(name, stage):
    result = _check(parse_input(FIXED[name]).theory, stage)
    if name == "warnings":
        assert len(result.warnings) == 2
    if name == "refuted" and stage in ("verify", "all"):
        assert [len(result.verified[w.index]) for w in result.worlds] == [1, 0]
    if name == "no-facts" and stage in ("verify", "all"):
        assert [w.chosen for w in result.worlds] == [(0, 0)]


@pytest.mark.parametrize("stage", STAGES)
def test_lifted_report_matches_the_reference(stage):
    result = _check(parse_input(LIFTED).theory, stage, lifting=True)
    assert any(s.structured for a in result.generated for s in a.conditions)
    if stage in ("verify", "all"):
        assert len(result.worlds) == 4


@pytest.mark.parametrize("stage", STAGES)
def test_oracle_report_matches_the_reference(stage):
    _check(parse_input(FIXED["diagram"]).theory, stage, oracle=True)


def _count_calls(monkeypatch, fn):
    """A Counter of the first argument of every call to fn, wherever a
    module of the package refers to it."""
    seen = collections.Counter()

    @functools.wraps(fn)
    def counted(atom, *rest):
        seen[atom] += 1
        return fn(atom, *rest)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("causalexpl"):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)
    return seen


@pytest.mark.parametrize("render", [render_text, render_json])
def test_each_reported_atom_is_sorted_and_formatted_once(monkeypatch,
                                                         render):
    config = RunConfig(stage="all")
    result = run_pipeline(parse_input(FIXED["diagram"]).theory,
                          parse_input("").stage, config)
    assert len(result.worlds) > 1
    reported = set().union(result.generated, result.optimal,
                           *result.verified.values())
    sort_keys = set(map(atom_sort_key, reported))
    keys = _count_calls(monkeypatch, model.atom_sort_key)
    decoded = _count_calls(monkeypatch, model.condition_texts)
    bodies = _count_calls(monkeypatch, model.atom_body)
    render(result, config)
    assert keys == dict.fromkeys(reported, 1)
    # a body or JSON head is written from the texts of the atom's sort key,
    # and atoms with one condition mask share its texts
    masks = {atom.mask for atom in reported}
    assert len(masks) < len(reported)
    assert decoded == dict.fromkeys(masks, 1)
    # render_json writes no fact-file bodies
    assert bodies == (dict.fromkeys(sort_keys, 1) if render is render_text
                      else {})


def test_worlds_are_ranked_once_per_verified_set(monkeypatch):
    config = RunConfig(stage="all")
    # x occurs in no condition, so the worlds on either value of a share
    # one verified set
    result = run_pipeline(parse_input(
        "cause(a,b). true(a) v -true(a). true(x) v -true(x).").theory,
        parse_input("").stage, config)
    seen = []

    def recording(groups):
        seen.append(groups)
        return model.ranked_atoms(groups)
    monkeypatch.setattr(cli, "ranked_atoms", recording)
    for render in (render_text, render_json):
        render(result, config)
    verified = set(result.verified.values())
    assert len(result.worlds) == 4 and len(verified) == 2 and len(seen) == 2
    for groups in seen:
        assert set(groups) == {"generated", "optimal", "verdicts"} | verified


@pytest.fixture(scope="module")
def chain_result():
    config = RunConfig(stage="all")
    return run_pipeline(chain_theory(3), parse_input("").stage,
                        config), config


@pytest.mark.parametrize("render, bound", [(render_text, 2.5),
                                           (render_json, 2.0)])
def test_render_peak_memory_is_bounded_by_the_report(chain_result, render,
                                                     bound):
    # a writer that builds a string per line, or copies the joined report,
    # peaks at several times the report it returns
    result, config = chain_result
    tracemalloc.start()
    try:
        report = render(result, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(report)


# -- random theories -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(STAGES), st.booleans())
def test_random_reports_match_the_reference(seed, stage, oracle):
    rng = random.Random(seed)
    t = random_theory(rng, max_symbols=6)
    symbols = sorted({s for ca in t.causal for s in (ca.cause, ca.effect)})
    # completions and a negative fact give several worlds, some refuting
    completed = rng.sample(symbols, min(len(symbols), rng.randint(0, 3)))
    facts = [Literal(s, False) for s in rng.sample(
        [s for s in symbols if s not in completed],
        min(len(symbols) - len(completed), rng.randint(0, 1)))]
    t = t._replace(completions=frozenset(completed), facts=frozenset(facts))
    _check(t, stage, oracle=oracle)

