"""The benchmark's tracer wraps functions by name; each must still exist.

A wrapped name that no longer resolves is reported as absent and its
per-layer metrics read 0, so a rename would pass unnoticed.  The check reads
the WRAPPED table only: installing the tracer would patch the package's
modules for every later test.
"""
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolves(layer, name):
    owner = importlib.import_module("causalexpl." + layer)
    for attr in name.split("."):
        owner = getattr(owner, attr, None)
    return callable(owner)


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = ["%s.%s" % key for key in tracing.WRAPPED
               if not _resolves(*key)]
    assert tracing.WRAPPED and missing == []
