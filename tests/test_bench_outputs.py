"""The CLI's output on the benchmark workloads is pinned byte for byte.

Each workload's input is built by perfbench/inputs.py (loaded by path, so
the benchmark's files are only read) at seeds 3, 7 and 11, and cli.main runs
on it with the workload's arguments, once as text, once as JSON and once
with --dump-theory (the canonical theory the benchmark's setup time runs),
writing to --out, and once as text with --oracle, the brute-force reference
derivation.  The exit code, the standard error and the SHA-256 of the output
(None when no output is written) must equal the table below, whose text and
JSON rows were recorded before the closure index held masks only, whose
--dump-theory rows before kind declarations took one shape, and whose
--oracle rows before closure.py kept only mask rows; a change that keeps the
program's behaviour keeps it.

To re-record the table after a deliberate output change, run this file as a
script: it prints the table to paste here.
"""
import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys

import pytest

from causalexpl import cli

INPUTS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
SEEDS = (3, 7, 11)
FORMATS = ("text", "json", "dump", "oracle")
# the arguments of each format, after the workload's own
FORMAT_ARGS = {"text": ["--format", "text"], "json": ["--format", "json"],
               "dump": ["--dump-theory"], "oracle": ["--oracle"]}

# (workload, seed, format) -> (exit code, stderr, SHA-256 of the output)
DIGESTS = {
    ('chain', 3, 'text'):
        (0, '', 'bb8099936413cefb2cf20471683722b25f81b3a792f280b3afc4bdf9597adc09'),
    ('chain', 3, 'json'):
        (0, '', 'cc05154d8ded184f8762281fb02690c3cfd361ca821f212a92f3eca2b7d5829e'),
    ('chain', 3, 'dump'):
        (0, '', '8ad4e065c1b7d97df1a7b3609dbf8c188a50d489ce96157a89dc84258a316eb9'),
    ('chain', 7, 'text'):
        (0, '', '940b78f245e2d7a1c16395f92d2241ce32acc3515691c757a35c0ed42c1b3c0c'),
    ('chain', 7, 'json'):
        (0, '', '029c2f4eb401eb6303eed9c008d2beb04188d0de549421ea177bdba13f8ef442'),
    ('chain', 7, 'dump'):
        (0, '', '3043e75ee67c4b9f9a6ae9f58fcbf52ae9bc6ed885970e1abe7b39117c6d9a59'),
    ('chain', 11, 'text'):
        (0, '', 'e340e4a02b16d359a9b806130e7562517f92647c27164172533dcafd78dc16f8'),
    ('chain', 11, 'json'):
        (0, '', '58595cbb5ec16a5ec048ebdb78c24d1a8bd352d5636fac823da031e44d40517a'),
    ('chain', 11, 'dump'):
        (0, '', '989a85e783a6c3862fdb50ffadc9bc9684eade548dea513faa6f558e02e9741f'),
    ('worlds_sym', 3, 'text'):
        (0, '', '7de50e3ec56ace2d6c35fd9d8490f813bc4f7d254ac5c94f5e5525511138c54a'),
    ('worlds_sym', 3, 'json'):
        (0, '', 'f7ef497cc08af51107820649cada5c88c4a99594db8d51628ae62c6cecd5373a'),
    ('worlds_sym', 3, 'dump'):
        (0, '', '7642b04c8fc70f06166e53e194fec00f9202438918c9f643a757c7562b3519fa'),
    ('worlds_sym', 7, 'text'):
        (0, '', 'c5a29d9520c975fb53aad6c2ec9b4a57e271baf805e0297e6741b9709f007ebb'),
    ('worlds_sym', 7, 'json'):
        (0, '', '0cc9f7d2ace931fe71d10e8eb940d9af874aa7d4b294dc5099a843a3b1923001'),
    ('worlds_sym', 7, 'dump'):
        (0, '', '235fb293e5f3892f1405981ab0d52904a3c501bd5114c37e195e4463514edef5'),
    ('worlds_sym', 11, 'text'):
        (0, '', 'c7d180541b5a20d0dc43c756433bc112d67a75fda23a29a49b8fc41139de9a7d'),
    ('worlds_sym', 11, 'json'):
        (0, '', '7b8b75d9c11e47717e24a7f1feb611540118f1b3798d9532f92e21bc6d0d55a9'),
    ('worlds_sym', 11, 'dump'):
        (0, '', '417b9f1fa7fd8dd6fc4e59d0c716a6cda1da9ddb0527672d2ae0b288f1729d79'),
    ('worlds_causal', 3, 'text'):
        (0, '', '807c58b91265b19c73203648d1e39bc74b0b79829c3af35f8ce78f97d81c27b0'),
    ('worlds_causal', 3, 'json'):
        (0, '', '31ae19f815dd48290204e3822292bdfadd1a47172facbd89d9dcd13d1314a116'),
    ('worlds_causal', 3, 'dump'):
        (0, '', '40c8c99fa12bcfbe99c625fdabc7950f18126f6feb0e54c286fbd20ce24e6873'),
    ('worlds_causal', 7, 'text'):
        (0, '', 'e7e759a0abe1fa8681e9167f9d5ec3dc51a830e54b0a8070bb985765a8781eea'),
    ('worlds_causal', 7, 'json'):
        (0, '', 'c93dc22a1cfd362e963cb662eeda37741999d3d38e08ad566d6da11427b964d7'),
    ('worlds_causal', 7, 'dump'):
        (0, '', 'a048b4f46529524cfc876e691aac6590b0229475d45b2225dd40bde49884f19e'),
    ('worlds_causal', 11, 'text'):
        (0, '', '056c54fbef5cb0c76d634a47254182a318ee01e460e0e92fc1012b0d9b546af3'),
    ('worlds_causal', 11, 'json'):
        (0, '', 'c6e5abf13aa9202ffd925d8b6e3c576b8165488b07caee8caf356aba73319a92'),
    ('worlds_causal', 11, 'dump'):
        (0, '', '5a06de664ca9aa8ce6dbd6a177cfca8d81a464ee93347b4866bbd12b64bfcd7b'),
    ('chain', 3, 'oracle'):
        (1, 'error: oracle refuses 45 symbols (bound 20)\n', None),
    ('chain', 7, 'oracle'):
        (1, 'error: oracle refuses 45 symbols (bound 20)\n', None),
    ('chain', 11, 'oracle'):
        (1, 'error: oracle refuses 45 symbols (bound 20)\n', None),
    ('worlds_sym', 3, 'oracle'):
        (0, '', '6cfd11ed33340293d8fba2b1a3f764a641ec856cc6973e115b817919580c1a09'),
    ('worlds_sym', 7, 'oracle'):
        (0, '', 'e5bfa3e840b49155e13e13b0aea526bcbef33f1155ac6c6613f80336954dbb93'),
    ('worlds_sym', 11, 'oracle'):
        (0, '', 'aa085c9875acac63d3da710c011732e1201812bdda0a3341f706511a98d3f772'),
    ('worlds_causal', 3, 'oracle'):
        (0, '', '3e3f2b27cafdc43f32afac0b680cc39de37ca7aaeb82660e9526b72e46e41b0e'),
    ('worlds_causal', 7, 'oracle'):
        (0, '', 'da9f791919d0d165c976547969aebebb57606d1dbb62c8f827d16845ed048023'),
    ('worlds_causal', 11, 'oracle'):
        (0, '', 'a0690dede30d238fe02c539864b9f302913afd77aa7f7c4c409bf1b84fdec51f'),
}


def _inputs_module():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    try:
        spec.loader.exec_module(inputs)
    finally:
        del sys.modules[spec.name]
    return inputs


INPUTS_MODULE = _inputs_module()
# a workload with no row in DIGESTS fails its cases
CASES = [(name, seed, fmt) for name in INPUTS_MODULE.WORKLOADS
         for seed in SEEDS for fmt in FORMATS]


def _run(workload, fmt, tmp_path):
    """(exit code, stderr, output digest) of one run on workload's input;
    the digest is None when the run writes no output."""
    theory, out = tmp_path / "input.lp", tmp_path / "out"
    theory.write_text(workload.text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(theory)] + workload.cli_args
                        + FORMAT_ARGS[fmt] + ["--out", str(out)])
    digest = (hashlib.sha256(out.read_bytes()).hexdigest() if out.exists()
              else None)
    return code, err.getvalue(), digest


@pytest.mark.parametrize("name,seed,fmt", CASES)
def test_bench_output_is_unchanged(name, seed, fmt, tmp_path):
    workload = INPUTS_MODULE.make_workload(name, seed)
    assert _run(workload, fmt, tmp_path) == DIGESTS[(name, seed, fmt)]


if __name__ == "__main__":
    import tempfile

    for key in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            row = _run(INPUTS_MODULE.make_workload(*key[:2]), key[2],
                       pathlib.Path(tmp))
        print("    %r:\n        %r," % (key, row))
