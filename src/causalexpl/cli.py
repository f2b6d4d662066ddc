"""Command-line frontend for the explanation pipeline.

Stages can be chained through files: the text output of ``--stage gen`` is
itself valid input, so ``causalexpl theory.lp gen.out --stage opt`` continues
where the previous run stopped.  Running ``--stage all`` on the theory alone
produces bit-identical results.

One rule decides where a stage's atoms come from: from stage input when the
input holds them (``ecSet`` lines are the generated atoms, ``ecSetRes`` lines
the optimal ones), and otherwise from the stage before.  ``--stage`` only
says where to stop.  ``explVer``, ``brave`` and ``cautious`` lines are output
only; a ``--format json`` report is read by its "explanations" (generated)
and "optimal" keys.

A verdict is the set of worlds that verify its atom: every atom verified in
some world is brave, and cautious too when that set holds every world.  Both
report writers sort the reported atoms once (model.ranked_atoms); each stage
section, distinct verified set and verdict lists positions in that one
order (a world those of its verified set), and text output formats each
atom's body once, JSON output its "from", "to" and "conditions", from the
texts its sort key holds.  Atoms verified in the same worlds share one
verdict.  The report is written to its stream in slices.

Exit codes: 0 success (a reader closing stdout early too), 1 input error
(an unwritable --out and a usage error too), 2 world overflow, 3 internal
error.  Warnings go to stderr whatever the exit code, before a failing
run's error line.  JSON is imported only to read or write JSON.
"""
from __future__ import annotations

import argparse
import atexit
import functools
import gc
import os
import sys
from collections import namedtuple
from typing import Dict, FrozenSet, List, Optional, Tuple

from .closure import compute_closures
from .generate import generate
from .lifting import apply_restrictions, lift
from .model import (ExplanationAtom, Literal, Theory, atom_body,
                    atom_sort_key, members, ranked_atoms, symbol_universe,
                    validate_theory)
from .optimize import optimize
from .parser import STAGE_SECTIONS, StageFacts, emit_theory, parse_input
from .worlds import (World, WorldOverflowError, brave_cautious,
                     enumerate_worlds, verify)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OVERFLOW = 2
EXIT_INTERNAL = 3


RunConfig = namedtuple(
    "RunConfig", "stage max_worlds inclusive_disjunction lifting oracle",
    defaults=("all", 1024, False, False, False))


class RunResult:
    """What one run derived; run_pipeline fills it in stage by stage."""
    __slots__ = ("generated", "optimal", "worlds", "verified", "verdicts",
                 "warnings")

    def __init__(self, generated: FrozenSet[ExplanationAtom] = frozenset()):
        self.generated = generated
        self.optimal: FrozenSet[ExplanationAtom] = frozenset()
        self.worlds: Tuple[World, ...] = ()
        self.verified: Dict[int, FrozenSet[ExplanationAtom]] = {}
        # atom -> the indices of the worlds that verify it (brave_cautious)
        self.verdicts: Dict[ExplanationAtom, FrozenSet[int]] = {}
        self.warnings: List[str] = []


def run_pipeline(t: Theory, stage_in: StageFacts, config: RunConfig,
                 result: Optional[RunResult] = None) -> RunResult:
    """Run config's stages on t into result (a new RunResult by default),
    which holds what was found so far, warnings too, when a stage raises."""
    result = RunResult() if result is None else result
    # the theory validated is the one the run uses, lifted links included;
    # lifting's own warnings follow validation's
    if config.lifting:  # object-level IS-A links as atom-level ontology
        lifted = apply_restrictions(lift(t.object_ontology, t.kind_decls),
                                    t.kind_decls)
        t = t._replace(ontology=frozenset(t.ontology) | lifted.atoms)
    report = validate_theory(t, lifting=config.lifting)
    result.warnings.extend(report.warnings)
    if not report.ok:
        raise ValueError("; ".join(report.errors))
    if config.lifting:
        result.warnings.extend(lifted.warnings)
    symbols, _ = symbol_universe(t)
    # the offending atom named is the one that sorts first, so that one
    # input gives one error text
    foreign = min((atom for atom in stage_in.generated | stage_in.optimal
                   if not atom.conditions | {atom.target} <= symbols),
                  key=atom_sort_key, default=None)
    if foreign is not None:
        unknown = (foreign.conditions | {foreign.target}) - symbols
        raise ValueError(
            "stage input %s explains %s with %s, which the theory does "
            "not mention" % (foreign.source, foreign.target,
                             ", ".join(map(str, sorted(unknown)))))

    # closures are built once per causal set, keyed by its mask, here for
    # the base set when a stage reads them or by enumerate_worlds, and
    # shared by generate, optimize and propagation
    base = sum(ca.bit for ca in t.causal)
    closures = {}

    def base_closures():
        if base not in closures:
            closures[base] = compute_closures(t)
        return closures[base]

    if config.oracle:
        from .oracle import derive_all, optimal_subset, row_pairs
        result.generated = derive_all(t, max_symbols=20)
        result.optimal = optimal_subset(result.generated,
                                        row_pairs(base_closures().impco_above))
        return result

    # a stage's atoms come from stage input when it holds them, otherwise
    # from the stage before; the stage only says where to stop.  Generated
    # atoms are skipped when neither emitted nor needed for the optimal ones.
    stage = config.stage
    if stage in ("gen", "all") or not stage_in.optimal:
        result.generated = (frozenset(stage_in.generated)
                            or generate(t, base_closures()))
    if stage == "gen":
        return result
    result.optimal = (frozenset(stage_in.optimal)
                      or optimize(result.generated, base_closures()))
    if stage == "opt":
        return result

    worlds = enumerate_worlds(t, max_worlds=config.max_worlds,
                              inclusive_disjunction=config.inclusive_disjunction,
                              closures=closures)
    result.worlds = worlds
    # generate + optimize run once per causal set some world holds, and
    # verify once per distinct (optimal atom set, mask of the false symbols
    # in its conditions) pair, the only false symbols verify reads; worlds
    # with equal verified sets hold one.  The closures of a set no world
    # holds are dropped now, and those of the others as their group is run
    groups = {}
    for world in worlds:
        groups.setdefault(world.causal, []).append(world)
    for causal in closures.keys() - groups.keys():
        del closures[causal]
    verified_by_pair, verified_sets = {}, {}
    for causal, group in groups.items():
        c = closures.pop(causal)
        atoms = (result.optimal if causal == base else optimize(
            generate(t.with_causal(members(causal)), c), c))
        mentioned = functools.reduce(int.__or__, (a.mask for a in atoms), 0)
        for world in group:
            pair = (atoms, mentioned & world.false)
            verified = verified_by_pair.get(pair)
            if verified is None:
                verified = verify(atoms, world)
                verified = verified_by_pair[pair] = verified_sets.setdefault(
                    verified, verified)
            result.verified[world.index] = verified
    result.verdicts = brave_cautious(result.verified, len(worlds))
    return result


# -- rendering ----------------------------------------------------------------

def _ranked(result: RunResult, config: RunConfig):
    """(sections, verifies, order, keys, ranks): the stage sections the run
    emits (the oracle emits both), whether it emits worlds and verdicts, and
    ranked_atoms over every reported atom, grouped by section field, by
    distinct verified set (a world's ranks are those of its set) and under
    "verdicts"."""
    sections = [section for section in STAGE_SECTIONS
                if config.stage in section.stages or config.oracle]
    groups = {section.field: getattr(result, section.field)
              for section in sections}
    verifies = config.stage in ("verify", "all") and not config.oracle
    if verifies:
        verified = result.verified.values()
        groups.update(zip(verified, verified))
        groups["verdicts"] = result.verdicts
    return (sections, verifies) + ranked_atoms(groups)


def render_text(result: RunResult, config: RunConfig) -> str:
    """The fact-file report, appended to one list of chunks and joined
    once: each line is its head, its atom's body and ").\n", every body
    written once and every head once per functor or world."""
    sections, verifies, order, keys, ranks = _ranked(result, config)
    bodies = list(map(atom_body, keys))
    out: List[str] = []
    for section in sections:
        head = section.functor + "("
        for r in ranks[section.field]:
            out += (head, bodies[r], ").\n")
    if verifies:
        for index in sorted(result.verified):
            head = "explVer(%d," % index
            for r in ranks[result.verified[index]]:
                out += (head, bodies[r], ").\n")
        for r in ranks["verdicts"]:
            out += ("brave(", bodies[r], ").\n")
            if len(result.verdicts[order[r]]) == len(result.worlds):
                out += ("cautious(", bodies[r], ").\n")
    return "".join(out)


@functools.lru_cache(maxsize=None)
def _brackets(pad: str) -> Tuple[str, str, str]:
    """The opening, separating and closing text of a JSON list at pad."""
    return "[\n" + pad + "  ", ",\n" + pad + "  ", "\n" + pad + "]"


def _items(items, pad: str, out: List[str], write=list.append):
    """Append the JSON list at pad of items, as json.dumps(indent=2) writes
    it: each item is appended to out by write(out, item), its inner lines
    indented by pad + 2; by default an item is its text, already written."""
    start = len(out)
    opening, comma, closing = _brackets(pad)
    for item in items:
        out.append(comma)
        write(out, item)
    if len(out) == start:
        out.append("[]")
    else:
        out[start] = opening
        out.append(closing)


# json.dumps(doc, indent=2) writes the objects of a stage section, of
# "worlds" and of "verdicts" at depth 2 (doc > list > object), their keys
# at depth 3, and a world's facts and atoms and a verdict's world indices at
# depth 4
_OBJECT, _KEY = " " * 4, " " * 6
_KEY_LINE, _CLOSE = ",\n" + _KEY, "\n" + _OBJECT + "}"


def _atom_head(key: tuple, quote) -> str:
    """The object at depth 2, up to its "conditions", of the atom whose
    atom_sort_key is key, its texts written by quote; the keys of the place
    it is written in and the closing brace follow."""
    source, target, conditions = key
    out = ['{\n%s"from": %s%s"to": %s%s"conditions": ' % (
        _KEY, quote(source), _KEY_LINE, quote(target), _KEY_LINE)]
    _items(map(quote, conditions), _KEY, out)
    return "".join(out)


def render_json(result: RunResult, config: RunConfig) -> str:
    """The report json.dumps(doc, indent=2) would write, appended to one
    list of chunks and joined once.  Each reported atom's "from", "to" and
    "conditions" are written once, as its head; a verified atom's block, a
    fact's text and a world's index are written once and spliced into
    every world or verdict that lists them."""
    from json.encoder import encode_basestring_ascii as quote
    sections, verifies, order, keys, ranks = _ranked(result, config)
    heads = [_atom_head(key, quote) for key in keys]
    out = ['{\n  "stage": ', quote(config.stage)]
    if result.warnings:
        out.append(',\n  "warnings": ')
        _items(map(quote, result.warnings), "  ", out)
    for section in sections:
        tail = '%s"status": %s%s' % (_KEY_LINE, quote(section.status),
                                     _CLOSE)
        out += (",\n  ", quote(section.key), ": ")
        _items(ranks[section.field], "  ", out,
               lambda out, r: out.extend((heads[r], tail)))
    if verifies:
        _write_worlds(result, order, ranks, heads, out, quote)
    out.append("\n}\n")
    return "".join(out)


def _write_worlds(result: RunResult, order: List[ExplanationAtom],
                  ranks: dict, heads: List[str], out: List[str], quote):
    """Append the "worlds" and "verdicts" keys of render_json's report, its
    texts written by quote."""
    # a verified atom's block is its head moved in by two levels (a quoted
    # text holds no line break)
    tail = '%s"status": "verified"%s' % (_KEY_LINE, _CLOSE)
    blocks = {r: (heads[r] + tail).replace("\n", "\n    ")
              for r in ranks["verdicts"]}
    # every literal some world chooses, as (bit, side of chosen, quoted
    # text), in text order
    chosen = [functools.reduce(int.__or__, (w.chosen[side]
                                            for w in result.worlds), 0)
              for side in (0, 1)]
    table = sorted((Literal(atom, side == 0).render(), atom.bit, side)
                   for side in (0, 1) for atom in members(chosen[side]))
    table = [(bit, side, quote(text)) for text, bit, side in table]
    indices = {w.index: int.__repr__(w.index) for w in result.worlds}
    index, facts, explanations = (
        '{\n%s"index": ' % _KEY, '%s"facts": ' % _KEY_LINE,
        '%s"explanations": ' % _KEY_LINE)

    def world(out, w):
        out += (index, indices[w.index], facts)
        _items([text for bit, side, text in table if w.chosen[side] & bit],
               _KEY, out)
        out.append(explanations)
        _items(map(blocks.__getitem__, ranks[result.verified[w.index]]),
               _KEY, out)
        out.append(_CLOSE)

    cautious = {flag: '%s"brave": true%s"cautious": %s%s"worlds": ' % (
        _KEY_LINE, _KEY_LINE, "true" if flag else "false", _KEY_LINE)
        for flag in (False, True)}

    # each distinct verdict's world list is written once (verdicts of atoms
    # verified in the same worlds are one frozenset)
    lists: Dict[FrozenSet[int], str] = {}

    def verdict(out, r):
        worlds = result.verdicts[order[r]]
        text = lists.get(worlds)
        if text is None:
            chunks: List[str] = []
            _items(map(indices.__getitem__, sorted(worlds)), _KEY, chunks)
            text = lists[worlds] = "".join(chunks)
        out += (heads[r], cautious[len(worlds) == len(result.worlds)], text,
                _CLOSE)

    out.append(',\n  "worlds": ')
    _items(result.worlds, "  ", out, world)
    out.append(',\n  "verdicts": ')
    _items(ranks["verdicts"], "  ", out, verdict)


# -- entry point ---------------------------------------------------------------

def _merge(parts):
    """Field-by-field union of namedtuple values of one type (theories with
    their kind declarations, or stage facts): sets are joined, and
    namedtuple fields are merged the same way."""
    if not isinstance(parts[0], tuple):
        return frozenset().union(*parts)
    return type(parts[0])(*map(_merge, zip(*parts)))


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, the input-error code,
    not argparse's 2, the world-overflow code; --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def build_arg_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="causalexpl",
        description="Derive, prune and verify causal explanation atoms.")
    p.add_argument("inputs", nargs="+", metavar="FILE",
                   help="fact files ('-' for stdin); multiple files are merged")
    p.add_argument("--stage", choices=("gen", "opt", "verify", "all"),
                   default="all")
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")
    p.add_argument("--lift", dest="lifting", action="store_true",
                   help="expand object-level IS-A links before the pipeline")
    p.add_argument("--max-worlds", type=int, default=1024,
                   help="fail with exit code 2 once more than this many "
                        "worlds survive (at least 1)")
    p.add_argument("--inclusive-disjunction", action="store_true",
                   help="disjunctive facts admit any non-empty subset of "
                        "their literals, not exactly one")
    p.add_argument("--oracle", action="store_true",
                   help="run the brute-force reference derivation instead of "
                        "the staged pipeline (debugging aid)")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--dump-theory", action="store_true",
                   help="print the canonical theory and exit")
    return p


# characters handed to a text stream per write, so that it never encodes a
# whole report into one second copy
_SLICE = 64 * 1024


def _write_slices(text: str, stream):
    for start in range(0, len(text), _SLICE):
        stream.write(text[start:start + _SLICE])


def _report(args, config: RunConfig, result: RunResult) -> str:
    """The text main writes, the canonical theory or the run's report; the
    parser's warnings, then the run's, are added to result as found."""
    theories, stages = [], []
    for name in args.inputs:
        if name == "-":
            text = sys.stdin.read()
        else:
            with open(name) as fh:
                text = fh.read()
        parsed = parse_input(text)
        theories.append(parsed.theory)
        stages.append(parsed.stage)
        result.warnings.extend(parsed.warnings)
    theory, stage_in = _merge(theories), _merge(stages)
    if args.dump_theory:
        return emit_theory(theory)
    run_pipeline(theory, stage_in, config, result)
    return (render_json(result, config) if args.fmt == "json"
            else render_text(result, config))


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI on argv (sys.argv[1:] by default); the exit code.

    A run leaves a few dozen objects in reference cycles however large its
    input, so the cyclic collector is off while it runs, and then as the
    caller had it.  gc.freeze runs at interpreter exit, so that exit skips
    its full collection over every object left; a process that goes on
    after main collects as before."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: Optional[List[str]]) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.max_worlds < 1:
        print("error: --max-worlds must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    config = RunConfig(*(getattr(args, f) for f in RunConfig._fields))
    result = RunResult()
    try:
        try:
            out = _report(args, config, result)
        finally:  # the warnings found before a failure too
            for w in result.warnings:
                print("warning: %s" % w, file=sys.stderr)
        if args.out:
            with open(args.out, "w") as fh:
                _write_slices(out, fh)
        else:
            try:
                _write_slices(out, sys.stdout)
                sys.stdout.flush()
            except BrokenPipeError:  # the reader stopped early: not an error
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except WorldOverflowError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_OVERFLOW
    # unreadable input, unwritable --out, and every input error: ParseError,
    # InconsistentTheoryError and OracleBoundError are ValueErrors
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
