"""Traced in-process run of the causalexpl CLI.

Run as ``python3 perfbench/tracing.py RESULT.json -- CLI-ARGS...`` with
``src`` on ``PYTHONPATH``.  It wraps the public functions of each module of
the package (nothing under ``src/`` is edited), calls ``causalexpl.cli.main``
once, and writes the spans and the per-layer metrics to RESULT.json.

A span is (name, start, end, parent).  A layer is a module; its self time is
the time of its spans minus the part their child spans cover.  A wrapped
function that no longer exists is listed under ``absent`` and its metrics
read 0, so the run still completes after a rename.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("parser", "lifting", "closure", "generate", "optimize", "worlds",
          "cli")

# (module, function or Class.method) -> count extractor, called as
# f(args, kwargs, result)
WRAPPED: Dict[tuple, Optional[Callable]] = {
    ("parser", "parse_input"): None,
    ("lifting", "lift"): None,
    ("lifting", "apply_restrictions"): lambda a, k, r: len(r.atoms),
    # the parser and the validator call these on every input
    ("lifting", "KindDeclarations.__post_init__"): None,
    ("lifting", "KindDeclarations.declared_predicates"): None,
    ("closure", "compute_closures"): None,
    ("closure", "impco_closure"): None,
    ("generate", "generate"): None,
    ("generate", "ecinit_base"): None,
    ("generate", "ecinit_double_ontology"): None,
    ("generate", "ecinit_full"): None,
    ("generate", "seed_ecsets"): None,
    ("generate", "gather_transitive"): lambda a, k, r: len(r),
    ("generate", "reduce_conditions"): lambda a, k, r: len(r) - len(a[0]),
    ("optimize", "optimize"): lambda a, k, r: (len(a[0]), len(r)),
    ("optimize", "prune_supersets"): None,
    ("optimize", "entailment_subsumption"): None,
    ("worlds", "enumerate_worlds"):
        lambda a, k, r: (len(r), len({w.chosen for w in r})),
    ("worlds", "propagate_truth"): None,
    ("worlds", "verify"): lambda a, k, r: len(r),
    ("worlds", "brave_cautious"): None,
    ("cli", "run_pipeline"):
        lambda a, k, r: len({w.causal for w in r.worlds}),
    ("cli", "render_text"): lambda a, k, r: len(r.encode()),
    ("cli", "render_json"): lambda a, k, r: len(r.encode()),
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None,
                          None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                try:
                    spans[index][4] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature leaves the count unset
            return result
        return traced

    def install(self) -> List[str]:
        """Wrap every listed function wherever the package refers to it."""
        modules = {m: importlib.import_module("causalexpl." + m)
                   for m in LAYERS}
        absent = []
        for (layer, fname), count in WRAPPED.items():
            owner, attr = modules[layer], fname
            if "." in fname:
                cls, attr = fname.split(".")
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                absent.append("%s.%s" % (layer, fname))
                continue
            wrapper = self.wrap("%s.%s" % (layer, fname), original, count)
            if owner is not modules[layer]:
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith(
                        "causalexpl"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return absent


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start

    def spans_of(*names):
        return [s for s in spans if s[0] in names]

    def total(*names):
        return sum(s[2] - s[1] for s in spans_of(*names))

    def counted(*names):
        return [s[4] for s in spans_of(*names) if s[4] is not None]

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(
            end - start - children[i]
            for i, (name, start, end, _, _) in enumerate(spans)
            if name.split(".")[0] == layer)

    def outermost(layer):
        """Spans of a layer that were not called from the same layer."""
        return [s for s in spans if s[0].split(".")[0] == layer and
                (s[3] is None or
                 spans[s[3]][0].split(".")[0] != layer)]

    m["parser.parse_s"] = total("parser.parse_input")
    m["lifting.lift_s"] = sum(s[2] - s[1] for s in outermost("lifting"))
    m["lifting.ont_atoms"] = sum(counted("lifting.apply_restrictions"))

    # closure calls are counted once per closure computed: an impco_closure
    # made inside compute_closures is part of that call
    outer = outermost("closure")
    m["closure.calls"] = len(outer)
    m["closure.s"] = sum(s[2] - s[1] for s in outer)

    m["generate.calls"] = len(spans_of("generate.generate"))
    m["generate.s"] = total("generate.generate")
    m["generate.initial_s"] = total(
        "generate.ecinit_base", "generate.ecinit_double_ontology",
        "generate.ecinit_full", "generate.seed_ecsets")
    m["generate.gather_s"] = total("generate.gather_transitive")
    m["generate.gathered_atoms"] = sum(counted("generate.gather_transitive"))
    m["generate.reduce_s"] = total("generate.reduce_conditions")
    m["generate.reduce_added"] = sum(counted("generate.reduce_conditions"))

    sizes = counted("optimize.optimize")
    m["optimize.calls"] = len(spans_of("optimize.optimize"))
    m["optimize.supersets_s"] = total("optimize.prune_supersets")
    m["optimize.entailment_s"] = total("optimize.entailment_subsumption")
    m["optimize.atoms_in"] = sum(n for n, _ in sizes)
    m["optimize.atoms_out"] = sum(n for _, n in sizes)
    m["optimize.kept_ratio"] = (m["optimize.atoms_out"] / m["optimize.atoms_in"]
                                if m["optimize.atoms_in"] else 0.0)

    kept = counted("worlds.enumerate_worlds")
    m["worlds.enumerate_s"] = total("worlds.enumerate_worlds")
    m["worlds.propagations"] = len(spans_of("worlds.propagate_truth"))
    m["worlds.kept"] = sum(n for n, _ in kept)
    m["worlds.distinct_kept"] = sum(n for _, n in kept)
    m["worlds.kept_ratio"] = (m["worlds.kept"] / m["worlds.propagations"]
                              if m["worlds.propagations"] else 0.0)
    m["worlds.verify_s"] = total("worlds.verify")
    m["worlds.verified_atoms"] = sum(counted("worlds.verify"))
    m["worlds.brave_cautious_s"] = total("worlds.brave_cautious")

    m["cli.pipeline_s"] = total("cli.run_pipeline")
    m["cli.distinct_causal_sets"] = sum(counted("cli.run_pipeline"))
    m["cli.render_s"] = total("cli.render_text", "cli.render_json")
    m["cli.output_bytes"] = sum(counted("cli.render_text", "cli.render_json"))
    return m


def main(argv: List[str]) -> int:
    result_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracing.py RESULT.json -- CLI-ARGS...")
    from causalexpl import cli
    tracer = Tracer()
    absent = tracer.install()
    code = tracer.wrap("cli.main", cli.main, None)(cli_args)
    with open(result_path, "w") as fh:
        json.dump({"exit": code, "absent": absent,
                   "metrics": layer_metrics(tracer.spans),
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
