"""Self-test of the correctness checks: each must reject a corrupted output.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout.  For every workload it runs the CLI once,
confirms that check.py accepts the output, then applies each corruption
below and confirms that check.py rejects it.  Exits 1 if any check fails to
reject, or rejects the real output.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from check import CheckError, check_output, reference_for  # noqa: E402
from inputs import WORKLOADS, make_workload  # noqa: E402


# -- text output (chain) ------------------------------------------------------

def _drop_first(functor):
    def corrupt(out, w):
        lines = out.splitlines(keepends=True)
        i = next(i for i, l in enumerate(lines) if l.startswith(functor + "("))
        return "".join(lines[:i] + lines[i + 1:])
    return corrupt


def _drop_atom_everywhere(out, w):
    """Remove one optimal atom of copies 0-1 from every line it appears on.

    The emitted ecSet then no longer contains it either, so only the
    comparison with the two-copy oracle can notice.
    """
    inside = set(w.copies[0].values()) | set(w.copies[1].values())
    for line in out.splitlines():
        m = re.match(r"ecSetRes\((\w+),(\w+),(\{[^}]*\})\)\.$", line)
        if m and m.group(1) in inside and m.group(2) in inside:
            body = "%s,%s,%s)." % m.groups()
            return "".join(l for l in out.splitlines(keepends=True)
                           if not l.rstrip("\n").endswith("(" + body)
                           and not l.rstrip("\n").endswith("," + body))
    raise AssertionError("no atom inside copies 0-1")


def _grow_condition_set(out, w):
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        m = re.match(r"ecSetRes\((\w+),(\w+),\{([^}]*)\}\)\.$", line.strip())
        if m and m.group(2) not in m.group(3).split(","):
            conds = sorted(m.group(3).split(",") + [m.group(2)])
            lines[i] = "ecSetRes(%s,%s,{%s}).\n" % (m.group(1), m.group(2),
                                                     ",".join(conds))
            return "".join(lines)
    raise AssertionError("no condition set to grow")


TEXT_CORRUPTIONS = {
    "drop one ecSetRes atom": _drop_first("ecSetRes"),
    "drop one ecSet atom that is optimal everywhere": _drop_atom_everywhere,
    "drop one explVer atom": _drop_first("explVer"),
    "flip one cautious verdict": _drop_first("cautious"),
    "drop one brave verdict": _drop_first("brave"),
    "grow one ecSetRes condition set": _grow_condition_set,
}


# -- JSON output (worlds_*) ---------------------------------------------------

def _json(edit):
    def corrupt(out, w):
        doc = json.loads(out)
        edit(doc)
        return json.dumps(doc)
    return corrupt


def _drop_world_atom(doc):
    world = next(x for x in doc["worlds"] if x["explanations"])
    world["explanations"].pop()


def _flip_cautious(doc):
    doc["verdicts"][0]["cautious"] = not doc["verdicts"][0]["cautious"]


def _flip_brave(doc):
    doc["verdicts"][-1]["brave"] = False


def _drop_world(doc):
    facts = doc["worlds"][0]["facts"]
    doc["worlds"] = [x for x in doc["worlds"] if x["facts"] != facts]


def _flip_fact(doc):
    facts = doc["worlds"][-1]["facts"]
    facts[0] = facts[0][1:] if facts[0].startswith("-") else "-" + facts[0]


def _drop_optimal(doc):
    doc["optimal"].pop(0)


def _unbracket(doc):
    entry = doc["optimal"][0]
    entry["from"] = re.sub(r"\[at,(\w+)\]", r"\1", entry["from"])


JSON_CORRUPTIONS = {
    "drop one verified atom of one world": _json(_drop_world_atom),
    "flip one cautious verdict": _json(_flip_cautious),
    "flip one brave verdict": _json(_flip_brave),
    "drop every copy of one world": _json(_drop_world),
    "flip one fact of one world": _json(_flip_fact),
    "drop one optimal atom": _json(_drop_optimal),
}
LIFTED_CORRUPTIONS = {"write one lifted symbol flat": _json(_unbracket)}


def run_cli(w, work: str) -> str:
    path = os.path.join(work, "input.lp")
    out = os.path.join(work, "out")
    with open(path, "w") as fh:
        fh.write(w.text)
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c",
                    "import sys; from causalexpl.cli import main; "
                    "sys.exit(main())", path] + w.cli_args + ["--out", out],
                   env=env, check=True)
    with open(out) as fh:
        return fh.read()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    work = os.path.join(ROOT, ".perfbench", "selftest")
    os.makedirs(work, exist_ok=True)
    failures = 0
    for name in WORKLOADS:
        w = make_workload(name, args.seed)
        reference = reference_for(w)
        out = run_cli(w, work)
        check_output(w, out, reference)
        print("%s: the real output passes" % name)
        corruptions = dict(TEXT_CORRUPTIONS if name == "chain"
                           else JSON_CORRUPTIONS)
        if w.lifted:
            corruptions.update(LIFTED_CORRUPTIONS)
        for label, corrupt in corruptions.items():
            bad = corrupt(out, w)
            assert bad != out, label
            try:
                check_output(w, bad, reference)
            except CheckError as exc:
                print("%s: %s: rejected (%s)" % (name, label, exc))
            else:
                print("%s: %s: NOT REJECTED" % (name, label))
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
