"""Both report writers against committed output, byte for byte.

golden_reports.json holds render_text and render_json for every FIXED case
of test_render.py, and for its LIFTED case (several worlds, lifted
symbols), at every stage.  The references in test_render.py follow
the writers' data shapes, so this file is the guard against format drift.
Rewrite it (``python3 tests/test_golden.py`` with ``src`` on PYTHONPATH)
only for a deliberate change of the output format.
"""
import json
import pathlib

import pytest

from causalexpl.cli import RunConfig, render_json, render_text, run_pipeline
from causalexpl.parser import parse_input
from test_render import FIXED, LIFTED, STAGES

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
# case name -> (input, whether the run lifts)
CASES = dict({name: (text, False) for name, text in FIXED.items()},
             lifted=(LIFTED, True))


def _reports(name, stage):
    text, lifting = CASES[name]
    config = RunConfig(stage=stage, lifting=lifting)
    result = run_pipeline(parse_input(text).theory,
                          parse_input("").stage, config)
    return {"%s %s text" % (name, stage): render_text(result, config),
            "%s %s json" % (name, stage): render_json(result, config)}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_the_golden_file(name, stage):
    golden = json.loads(GOLDEN.read_text())
    for key, out in _reports(name, stage).items():
        assert out == golden[key], key


if __name__ == "__main__":
    reports = {}
    for name in sorted(CASES):
        for stage in STAGES:
            reports.update(_reports(name, stage))
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
