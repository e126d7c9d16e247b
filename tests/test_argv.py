"""`cli.read_argv`, the command table's reader, against the `argparse`
tree it replaced (`argparse_cli.build_parser`), on generated command lines:
every command with subsets of its options, each option spelled
`--opt value`, `--opt=value` and cut to prefixes (an empty prefix is
ambiguous), repeated options, `--`, bad choices and bounds, missing and
extra positionals, unknown commands and options, `-h` at both levels, and
seeded random mixes of all of these; plus every command line of the
README, the tests and transcripts, and the benchmark's `reach` workload.

Where argparse accepts a command line, the table's values must equal its
namespace; where it exits, the table must exit with the same code (0 for
help, 2 for a usage error). `-hX` is left out: Python 3.13's argparse
reads it as help, earlier ones as an error, and the table as an unknown
option."""

import contextlib
import importlib.util
import io
import random
import shlex

import pytest

from conftest import CORPUS
import argparse_cli
from privcalc import cli

ROOT = CORPUS.parent
ORACLE = argparse_cli.build_parser()

FILE = "corpus/hospital.pc"
# values per option: first the ones each reader accepts (of `--format`, those
# among the command's choices), then bad ones
GOOD = {"--env": ["corpus/hospital.env", "-", "-1", "a b", "", "-x y"],
        "--policy": ["corpus/hospital.ppo", "p.ppo"],
        "--depth": ["4", "0", "12"],
        "--correspondence": ["12", "0"],
        "--id-direction": ["known", "anon"],
        "--format": ["records", "dot", "text"]}
BAD = {"--env": ["--x", "-x"], "--policy": ["--env", "-q"],
       "--depth": ["-1", "two", "", "1.5", "+3", " 4", "-x"],
       "--correspondence": ["-1", "x"],
       "--id-direction": ["kno", "KNOWN", ""], "--format": ["record", "json", "-t"]}
STRAYS = ["--bogus", "-x", "---env", "--env-file", "--=x", "-h=x", "--help=x", "--he",
          "-", "-1", "-2.5", "-.5", "-5.", "-1\n", "-x y", "", "extra", "--",
          "--preserve=yes", "--strict-coverage="]
TOP = ["-h", "--help", "--h", "--he", "--help=x", "-h=x", "--bogus", "-x", "--", "-", "-1",
       "", "sim", "verif", "Verify", "policy", "frobnicate"]

# the command lines of the tests and transcripts (paths the tests make in a
# temporary directory are under tmp/)
TEST_LINES = [
    # test_cli.py
    "verify corpus/hospital.pc --policy corpus/hospital.ppo --env corpus/hospital.env",
    "verify corpus/hospital_nurse_read.pc --policy corpus/hospital.ppo --env corpus/hospital.env",
    "policy-wf corpus/hospital.ppo", "policy-wf tmp/cyc.ppo", "frobnicate",
    "typecheck tmp/bad.pc", "verify tmp/bad.system --policy corpus/hospital.ppo "
    "--env corpus/hospital.env",
    "scan corpus/etp_central.pc --policy corpus/etp_central.ppo --env corpus/etp_central.env "
    "--depth 4",
    "errors corpus/hospital_nurse_read.pc --policy corpus/hospital.ppo --env corpus/hospital.env",
    "typecheck corpus/lab.pc",
    "scan corpus/hospital_nurse_read.pc --policy corpus/hospital.ppo --env corpus/hospital.env "
    "--depth 4",
    "typecheck tmp/in.pc",
    "simulate corpus/hospital.pc --depth -2 --env corpus/hospital.env",
    "scan corpus/hospital.pc --policy corpus/hospital.ppo --depth -1 --env corpus/hospital.env",
    "encode tmp/st.pc --correspondence -1 --env corpus/hospital.env",
    "simulate corpus/hospital.pc --depth two --env corpus/hospital.env",
    "simulate corpus/hospital.pc --env corpus/hospital.env --depth 0",
    "encode tmp/st.pc",
    "typecheck corpus/speedlimit.pc --env corpus/speedlimit.env",
    "verify corpus/hospital_nurse_read.pc --policy corpus/hospital.ppo --env corpus/hospital.env "
    "--format records",
    "simulate corpus/speedlimit.pc --env corpus/speedlimit.env --depth 3",
    "simulate corpus/etp_central.pc --env corpus/etp_central.env --depth 2 --format dot",
    "typecheck corpus/lab.pc --env corpus/hospital.env",
    "typecheck corpus/lab.pc --env corpus/hospital.env --id-direction known",
    "verify corpus/etp_central.pc --policy corpus/etp_central.ppo --env corpus/etp_central.env "
    "--strict-coverage",
    "verify corpus/hospital.pc --policy corpus/hospital.ppo --env corpus/hospital.env",
    "simulate corpus/speedlimit.pc --env corpus/speedlimit.env --depth 3 --preserve",
    "scan corpus/hospital.pc --depth -1",
    # test_transcripts.py
    "simulate corpus/lab.pc --env corpus/hospital.env --depth 6",
    "simulate corpus/lab.pc --env corpus/hospital.env --depth 8 --preserve",
    "scan corpus/lab.pc --env corpus/hospital.env --policy corpus/hospital.ppo --format text "
    "--depth 8",
    "scan corpus/lab.pc --env corpus/hospital.env --policy corpus/hospital.ppo --format records "
    "--depth 8",
    "errors corpus/lab.pc --env corpus/hospital.env --policy corpus/hospital.ppo --format text",
    "errors corpus/lab.pc --env corpus/hospital.env --policy corpus/hospital.ppo --format records",
    "simulate tmp/bare.pc --env corpus/hospital.env --depth 3 --preserve",
    "simulate tmp/spans.pc --env corpus/hospital.env --depth 8 --preserve",
    # test_safety.py
    "errors corpus/hospital_nurse_read.pc --policy corpus/hospital.ppo --env corpus/hospital.env "
    "--id-direction known --countlink-literal --format records",
    "errors corpus/hospital_nurse_read.pc --policy corpus/hospital.ppo --env corpus/hospital.env "
    "--id-direction anon --format text",
    "errors tmp/c.pc --policy tmp/c.ppo --env tmp/c.env",
    "scan tmp/c.pc --policy tmp/c.ppo --env tmp/c.env --depth 4",
]


def _readme_lines() -> list[list[str]]:
    lines = [shlex.split(line)[1:] for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("privcalc ")]
    assert len(lines) >= 7
    return lines


def _reach_lines() -> list[list[str]]:
    """The command lines of the benchmark's `reach` workload."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [inp["argv"] for job in workloads.reach_jobs(random.Random(1))
            for inp in job["inputs"]]


def _spellings(string: str, value) -> list[list[str]]:
    """`string` given `value` (None: a flag) as `--opt value`, `--opt=value`
    and through each of its prefixes."""
    cuts = [string[:k] for k in range(3, len(string) + 1)]
    if value is None:
        return [[cut] for cut in cuts]
    return [form for cut in cuts for form in ([cut, value], [f"{cut}={value}"])]


def _generated() -> list[list[str]]:
    rng = random.Random(30)
    lines = [[], *([t] for t in TOP), *([t, "-h"] for t in TOP), *([t, "verify"] for t in TOP),
             ["-h", "bogus"], ["bogus", "-h"], ["--bogus", "verify", FILE, "--policy", "p"],
             ["--", "simulate", FILE]]
    for name, command in cli.COMMANDS.items():
        opts = {o[0]: o for o in command.options}
        # the good values among the command's choices (`--format` has its own)
        good = {s: [v for v in GOOD[s] if not isinstance(o[2], tuple) or v in o[2]]
                for s, o in opts.items() if o[2] is not cli._FLAG}
        need = ["--policy", "p.ppo"] if "--policy" in opts else []
        tokens = [[FILE], ["-"], ["-1"], ["-x y"], [""], ["extra"], ["-h"], ["--help"], ["--h"],
                  *([s] for s in STRAYS)]
        for string, (_, _, check, _) in opts.items():
            values = [None] if check is cli._FLAG else GOOD[string] + BAD[string]
            for value in values:
                tokens += _spellings(string, value)
        # each option alone, in each spelling, after and before the positional
        for string, (_, _, check, _) in opts.items():
            values = [None] if check is cli._FLAG else GOOD[string] + BAD[string]
            for value in values:
                for form in _spellings(string, value):
                    lines += [[name, FILE, *form, *need], [name, *need, *form, FILE]]
            # repeated: the last value counts
            if check is not cli._FLAG:
                first, second = good[string][:2]
                lines += [[name, FILE, *need, string, first, string, second],
                          [name, FILE, *need, f"{string}={second}", string[:4], first]]
        # every subset of the options, the positional at a place of its own
        strings = list(opts)
        for mask in range(1 << len(strings)):
            chosen = [s for k, s in enumerate(strings) if mask >> k & 1]
            forms = [rng.choice(_spellings(s, None if opts[s][2] is cli._FLAG else good[s][0]))
                     for s in chosen]
            at = mask % (len(forms) + 1)
            lines.append([name, *(t for f in forms[:at] for t in f), FILE,
                          *(t for f in forms[at:] for t in f)])
        # `--`, help and positionals
        lines += [[name, *need, "--", FILE], [name, *need, "--", "-x"], [name, FILE, *need, "--"],
                  [name, *need, FILE, "--"], [name, FILE, "--", *need], [name, "--", FILE, *need],
                  [name, *need, "--", FILE, "--"], [name, *need, "--", "--", FILE],
                  [name, *need, "--"], [name, *need], [name, FILE, FILE, *need],
                  [name, "-h"], [name, FILE, "--bogus", "-h"], [name, FILE, "x", "-h"],
                  [name, "-h", "--depth", "x"], [name, "--format", "x", "-h"]]
        # random mixes
        for _ in range(400):
            lines.append([*rng.choice([[], [], [], ["--bogus"], ["-h"]]), name,
                          *(t for _ in range(rng.randint(0, 6)) for t in rng.choice(tokens))])
    return lines


def _oracle(argv: list[str]):
    """(exit code, None) where argparse exits, else (None, its namespace)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return None, vars(ORACLE.parse_args(argv))
        except SystemExit as e:
            return e.code, None


def _table(argv: list[str]):
    try:
        name, args = cli.read_argv(argv)
    except cli._Help:
        return 0, None
    except cli._UsageError:
        return 2, None
    return None, {**vars(args), "command": name, "fn": cli.COMMANDS[name].run}


def test_table_reads_as_argparse_did():
    known = _readme_lines() + _reach_lines() + [line.split() for line in TEST_LINES]
    lines = known + _generated()
    outcomes = {"accepted": 0, 0: 0, 2: 0}
    wrong = []
    for argv in lines:
        want = _oracle(argv)
        if _table(argv) != want:
            wrong.append((argv, want, _table(argv)))
        outcomes["accepted" if want[0] is None else want[0]] += 1
    assert wrong[:5] == []
    # every kind of outcome is well represented
    assert len(lines) > 4000 and min(outcomes.values()) > 400, outcomes
    # the known command lines are read as given, but for the usage errors
    # that tests provoke on purpose
    assert sum(_oracle(argv)[0] is None for argv in known) == len(known) - 6


@pytest.mark.parametrize("argv", [
    ["typecheck", FILE, "--format", "records"], ["encode", FILE, "--format", "text"],
    ["encode", FILE, "--id-direction", "known"], ["simulate", FILE, "--format", "records"],
    *([name, FILE, "--policy", "p.ppo", "--format", "dot"] for name in ("verify", "errors", "scan"))])
def test_options_a_handler_lacks_are_usage_errors(argv, capsys):
    """An option or output form the command's handler does not have is a
    usage error, not an option that does nothing."""
    assert cli.main(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"usage: privcalc {argv[0]} [-h]")


def test_help_and_usage_errors_through_main(capsys):
    """`-h` prints help from the table on standard output and exits 0, at
    both levels; a usage error prints the usage line and the message on
    standard error and exits 2."""
    assert cli.main(["-h"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: privcalc [-h] COMMAND ...\n")
    assert all(f"  {name} " in out for name in cli.COMMANDS)
    assert cli.main(["scan", "--he"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: privcalc scan [-h] [--env ENV] --policy POLICY [--depth DEPTH]")
    assert all(o[0] in out for o in cli.COMMANDS["scan"].options)
    assert cli.main(["scan", FILE, "--depth", "-1"]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[1] == (
        "privcalc scan: error: argument --depth: expected an integer of 0 or more, got '-1'")
