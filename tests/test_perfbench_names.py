"""The benchmark's tracer wraps functions by name; each must still exist.

A wrapped name that no longer resolves is reported as absent and its
per-layer metrics read 0, so a rename would pass unnoticed; a changed result
type leaves a span's count unset, which would pass unnoticed too.  The name
check reads the WRAPPED table only, and the traced run is a subprocess:
installing the tracer would patch the package's modules for every later
test.

DELETED names the functions the package removed on purpose while the
benchmark still wraps them: the tracer lists exactly these as absent, and
any other missing name fails.  The next change to the benchmark drops them
from WRAPPED and empties this set.
"""
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import causalexpl
from conftest import FIG_TEXT

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the guarded double-ontology seed, since generate seeds from ecinit_full
# alone; the base rules and the seeding rule, since ecinit_full gives the
# seeds and steps itself; the per-group optimiser passes, since optimize is
# one pass; and the pair closure, since the oracle decodes the closure
# index's rows
DELETED = {"generate.ecinit_double_ontology", "generate.ecinit_base",
           "generate.seed_ecsets", "optimize.prune_supersets",
           "optimize.entailment_subsumption", "closure.impco_closure"}


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _resolves(layer, name):
    owner = importlib.import_module("causalexpl." + layer)
    for attr in name.split("."):
        owner = getattr(owner, attr, None)
    return callable(owner)


def test_every_traced_name_exists():
    tracing = _tracing_module()
    missing = {"%s.%s" % key for key in tracing.WRAPPED
               if not _resolves(*key)}
    assert tracing.WRAPPED and missing == DELETED


def test_every_traced_count_is_set(tmp_path):
    theory = tmp_path / "theory.lp"
    theory.write_text(FIG_TEXT + "onekind(heard). ont_object(loud_bell,bell). "
                      "cause(x,[heard,loud_bell]).\n")
    result = tmp_path / "trace.json"
    src = pathlib.Path(causalexpl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(TRACING), str(result), "--", str(theory),
         "--lift", "--stage", "all", "--format", "json",
         "--out", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text())
    assert trace["exit"] == 0 and set(trace["absent"]) == DELETED
    counted = {"%s.%s" % key for key, count in _tracing_module().WRAPPED.items()
               if count is not None}
    unset = sorted({span[0] for span in trace["spans"]
                    if span[0] in counted and span[4] is None})
    assert unset == []
    assert {span[0] for span in trace["spans"]} >= counted - {"cli.render_text"}


def test_traced_run_records_propagation(tmp_path):
    # worlds.propagations counts worlds.propagate_truth spans, so the walk
    # must propagate through that function for the metric to mean anything
    theory = tmp_path / "theory.lp"
    theory.write_text("ont(a,b). cause(b,c). true(a) v -true(a).\n")
    result = tmp_path / "trace.json"
    src = pathlib.Path(causalexpl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(TRACING), str(result), "--", str(theory),
         "--stage", "all", "--out", str(tmp_path / "out.lp")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text())
    assert trace["exit"] == 0
    assert any(span[0] == "worlds.propagate_truth" for span in trace["spans"])
    assert trace["metrics"]["worlds.propagations"] >= 1
