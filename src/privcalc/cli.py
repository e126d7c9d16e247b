"""Command-line entry point: typecheck, verify, simulate, errors, scan,
encode and policy-wf over system/policy/environment files.

Exit codes: 0 success or satisfied, 1 violation or finding, 2 usage, parse
or typing failure, 3 internal error, 141 (128 + SIGPIPE) standard output
closed before everything was written.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Optional

from .encoding import EncodingError, check_correspondence, encode, render_core
from .kernel import KernelError
from .policy import check_wellformed
from .safety import SHOWN_UNCHECKED, error_report, safety_scan, unchecked_summary
from .satisfaction import verify
from .semantics import check_preservation, explore
from .syntax import Gamma, parse_env, parse_policy, parse_process, parse_system
from .typesys import Theta, TypingError, type_system

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141


def _color_enabled() -> bool:
    mode = os.environ.get("PRIVCALC_COLOR", "auto")
    return mode == "always" or (mode != "never" and sys.stdout.isatty())


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _fail(*msgs: str) -> int:
    for msg in msgs:
        print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


def _load(path: Optional[str], parse, *extra):
    """The value `parse` reads from the file at `path`, given the `extra`
    arguments; no path (no `--env`) gives an empty environment. A file
    that cannot be read as UTF-8 text, or does not parse, is an input
    error. The caller names the parser, so the one that runs is whatever
    that name holds then."""
    if path is None:
        return Gamma()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _CliError(str(e)) from e
    except UnicodeDecodeError as e:
        raise _CliError(f"{path}: {e}") from e
    res = parse(text, *extra)
    if not res.ok:
        raise _CliError(*(f"{path}: {d.span}: {d.message}" for d in res.diagnostics))
    return res.value


class _CliError(Exception):
    """An input error: each argument is one line to print after `error: `."""


def _bound(text: str) -> int:
    """A `--depth` or `--correspondence` bound: an integer, 0 or more."""
    if not text.isdecimal():
        raise ValueError(f"expected an integer of 0 or more, got {text!r}")
    return int(text)


def theta_records(theta: Theta) -> list[str]:
    lines = []
    for e in theta.canonical():
        perms = ",".join(str(p) for p in e.perms.sorted())
        path = ".".join(e.path)
        lines.append(f"theta type={e.ptype} path={path} perms={{{perms}}}")
    return lines


def _cmd_typecheck(args) -> int:
    gamma = _load(args.env, parse_env)
    system = _load(args.file, parse_system, gamma)
    try:
        st = type_system(gamma, system, id_direction=args.id_direction)
    except TypingError as e:
        return _fail(str(e))
    for line in theta_records(st.theta):
        print(line)
    if st.lam:
        print(f"stores {','.join(sorted(st.lam))}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    gamma = _load(args.env, parse_env)
    policy = _load(args.policy, parse_policy)
    system = _load(args.file, parse_system, gamma)
    verdict = verify(policy, gamma, system, strict_coverage=args.strict_coverage,
                     id_direction=args.id_direction)
    if args.format == "records":
        print(f"verdict satisfied={'yes' if verdict.satisfied else 'no'}")
        for w in verdict.witnesses:
            path = ".".join(w.theta_path)
            at = ".".join(w.policy_path)
            for failing in w.failing:
                print(f"witness type={w.ptype} path={path} permission={failing} node={at}")
        if verdict.error:
            print(f"witness error={verdict.error}")
    else:
        word = "satisfied" if verdict.satisfied else "unsatisfied"
        print(_paint(word, "32" if verdict.satisfied else "31"))
        if verdict.error:
            print(f"  {verdict.error}")
        for w in verdict.witnesses:
            print(f"  {w.render()}")
    return EXIT_OK if verdict.satisfied else EXIT_VIOLATION


def _cmd_simulate(args) -> int:
    gamma = _load(args.env, parse_env)
    system = _load(args.file, parse_system, gamma)
    graph = explore(system, args.depth)
    if args.format == "dot":
        print(graph.dot())
    else:
        print(f"root {graph.root}")
        for line in graph.trace_lines():
            print(line)
        print(f"states {len(graph.nodes)} edges {len(graph.edges)}"
              f"{' truncated' if graph.truncated else ''}")
    if args.preserve:
        report = check_preservation(gamma, graph, id_direction=args.id_direction)
        print(report.render(), file=sys.stderr if args.format == "dot" else sys.stdout)
        if not report.ok:
            return EXIT_VIOLATION
    return EXIT_OK


def _cmd_errors(args) -> int:
    gamma = _load(args.env, parse_env)
    policy = _load(args.policy, parse_policy)
    system = _load(args.file, parse_system, gamma)
    findings, unchecked = error_report(policy, gamma, system, id_direction=args.id_direction,
                                       countlink_literal=args.countlink_literal)
    if args.format == "records":
        for f in findings:
            rec = f.record()
            print(" ".join(f"{k}={rec[k]}" for k in
                           ("clause", "type", "path", "permission")))
        for u in unchecked:
            print("unchecked " + " ".join(f"{k}={v}" for k, v in u.record().items()))
    elif unchecked and not findings:
        print(_paint(unchecked_summary(unchecked), "33"))
        for u in unchecked[:SHOWN_UNCHECKED]:
            print(f"  {u.render()}")
    else:
        if not findings:
            print(_paint("no findings", "32"))
        for f in findings:
            print(f.render())
    return _verdict(findings, unchecked)


def _verdict(findings: list, unchecked: list) -> int:
    """Findings are a violation; with none, a prefix whose clauses were not
    read leaves no verdict, as a typing failure does."""
    return EXIT_VIOLATION if findings else EXIT_ERROR if unchecked else EXIT_OK


def _cmd_scan(args) -> int:
    gamma = _load(args.env, parse_env)
    policy = _load(args.policy, parse_policy)
    system = _load(args.file, parse_system, gamma)
    report = safety_scan(policy, gamma, system, args.depth,
                         id_direction=args.id_direction,
                         countlink_literal=args.countlink_literal)
    print(report.render())
    return _verdict(report.findings, report.unchecked)


def _cmd_encode(args) -> int:
    gamma = _load(args.env, parse_env)
    proc = _load(args.file, parse_process, gamma)
    try:
        core = encode(proc)
    except EncodingError as e:
        return _fail(str(e))
    print(render_core(core))
    if args.correspondence is not None:
        report = check_correspondence(proc, args.correspondence)
        print(report.render())
        if not report.ok:
            return EXIT_VIOLATION
    return EXIT_OK


def _cmd_policy_wf(args) -> int:
    policy = _load(args.policy, parse_policy)
    violations = check_wellformed(policy)
    if not violations:
        print(_paint("well-formed", "32"))
        return EXIT_OK
    for v in violations:
        print(str(v))
    return EXIT_VIOLATION


# --- the command table ------------------------------------------------------------
#
# One row per command: its help line, its positional, its options and its
# handler. An option is `(string, default, check, help)`. Its value is the
# text given when `check` is None, one of the strings in `check` when that
# is a tuple, and what `check` returns for the text when that is a reader
# such as `_bound` (which raises ValueError on a bad one). A flag has the
# check `_FLAG`: False unless given, and it takes no value. An option whose
# default is `_REQUIRED` must be given. Every command also takes `-h` and
# `--help`.

_FLAG = object()
_REQUIRED = object()


class _Command:
    __slots__ = ("help", "positional", "options", "run")

    def __init__(self, help: str, positional: str, options: tuple, run):
        self.help, self.positional, self.options, self.run = help, positional, options, run


_ENV = ("--env", None, None, "environment file (.env)")
_POLICY = ("--policy", _REQUIRED, None, "policy file (.ppo)")
_DEPTH = ("--depth", 6, _bound, "exploration bound, 0 or more (default 6)")
_ID = ("--id-direction", "anon", ("anon", "known"),
       "the side of an identification that carries identify (default anon)")
_RECORDS = ("--format", "text", ("text", "records"), "output form (default text)")
_DOT = ("--format", "text", ("text", "dot"), "output form (default text)")
_COUNTLINK = ("--countlink-literal", False, _FLAG,
              "count references by the literal payload reading")

COMMANDS = {
    "typecheck": _Command("infer the permission interface", "file",
                          (_ENV, _ID), _cmd_typecheck),
    "verify": _Command("check a system against a policy", "file",
                       (_ENV, _POLICY, _ID, _RECORDS,
                        ("--strict-coverage", False, _FLAG,
                         "fail on interface entries of types the policy does not bind")),
                       _cmd_verify),
    "simulate": _Command("explore internal steps", "file",
                         (_ENV, _DEPTH, _ID, _DOT,
                          ("--preserve", False, _FLAG,
                           "also check type preservation along every edge")),
                         _cmd_simulate),
    "errors": _Command("static error-system detection", "file",
                       (_ENV, _POLICY, _ID, _RECORDS, _COUNTLINK), _cmd_errors),
    # `scan --format records` prints text, as the benchmark's `reach` scan jobs check
    "scan": _Command("error detection over reachable states", "file",
                     (_ENV, _POLICY, _DEPTH, _ID, _RECORDS, _COUNTLINK), _cmd_scan),
    "encode": _Command("translate to core pi with select/branch", "file",
                       (_ENV, ("--correspondence", None, _bound,
                               "also check operational correspondence up to this bound")),
                       _cmd_encode),
    "policy-wf": _Command("check policy well-formedness", "policy", (), _cmd_policy_wf),
}

_HELP = ("-h", "--help")


class _Help(Exception):
    """`-h` or `--help` was given: the argument is the text to print."""


class _UsageError(Exception):
    """A command line the table does not accept: the command it was read
    for (None before one is named) and the message."""


def _lookup(name: Optional[str], arg: str, strings) -> Optional[tuple[str, Optional[str]]]:
    """What `arg` is among the option strings of the command `name` (None:
    before the command): None for a value, and for an option its string
    and the text after `=` (None without). A long option may be cut to any
    prefix that names only one. An option that names none is `("", None)`,
    but `-`, a negative number and text with a space are values then."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in strings:
        return arg, None
    prefix, eq, value = arg.partition("=")
    if eq and prefix in strings:
        return prefix, value
    if arg[:2] == "--":
        hits = [s for s in strings if s.startswith(prefix)]
        if len(hits) > 1:
            raise _UsageError(name, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    if _negative(arg) or " " in arg:
        return None
    return "", None


def _negative(arg: str) -> bool:
    """Whether argparse reads `arg` as a negative number: `-5`, `-.5` or
    `-1.5`, and one followed by a newline, which its pattern's `$` let
    through. Checked without a pattern, which each call would compile."""
    whole, dot, frac = arg[1:].removesuffix("\n").partition(".")
    return (whole.isdecimal() and not dot) or (
        bool(dot) and (not whole or whole.isdecimal()) and frac.isdecimal())


def read_argv(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command that `argv` names and its arguments by name, read
    against `COMMANDS`. Options come before or after the positional, as
    `--opt value` or `--opt=value`; `--` ends them, and a repeated option
    keeps its last value. Raises `_Help` at the first `-h` or `--help`
    (before the command, the only options), and `_UsageError` at once for
    a bad choice or bound, an option without its value or a flag with one,
    and at the end for what is missing, unknown or extra."""
    strays = []  # options and values that name nothing
    for i, arg in enumerate(argv):
        opt = None if arg == "--" else _lookup(None, arg, _HELP)
        if opt is None:
            break
        if opt[0]:
            _help(None, opt)
        strays.append(arg)
    else:
        raise _UsageError(None, "a command is required")
    name, args = argv[i], argv[i + 1:]
    if name not in COMMANDS:
        raise _UsageError(None, f"unknown command {name!r} (choose from {', '.join(COMMANDS)})")
    command = COMMANDS[name]
    options = {o[0]: o for o in command.options}
    end = args.index("--") if "--" in args else len(args)
    kinds = [_lookup(name, a, (*_HELP, *options)) for a in args[:end]]
    values = {_dest(o[0]): None if o[1] is _REQUIRED else o[1] for o in command.options}
    found = []  # where the values for the positional stand
    i = 0
    while i < end:
        opt, i = kinds[i], i + 1
        if opt is None:
            found.append(i - 1)
        elif opt[0] in _HELP:
            _help(name, opt)
        elif not opt[0]:
            strays.append(args[i - 1])
        else:
            string, value = opt
            check = options[string][2]
            if check is _FLAG:
                if value is not None:
                    raise _UsageError(name, f"argument {string}: "
                                            f"ignored explicit argument {value!r}")
                value = True
            else:
                if value is None:
                    if i == end or kinds[i] is not None:
                        raise _UsageError(name, f"argument {string}: expected one argument")
                    value, i = args[i], i + 1
                value = _value(name, string, check, value)
            values[_dest(string)] = value
    found += range(end + 1, len(args))
    # a `--` next to the positional ends the options; anywhere else it is extra
    if end < len(args) and not (found and found[0] in (end - 1, end + 1)):
        strays.append("--")
    missing = [] if found else [command.positional]
    missing += [s for s, default, _, _ in command.options
                if default is _REQUIRED and values[_dest(s)] is None]
    if missing:
        raise _UsageError(name, f"the following arguments are required: {', '.join(missing)}")
    strays += [args[j] for j in found[1:]]
    if strays:
        raise _UsageError(name, f"unrecognized arguments: {' '.join(strays)}")
    values[command.positional] = args[found[0]]
    return name, SimpleNamespace(**values)


def _dest(string: str) -> str:
    return string[2:].replace("-", "_")


def _value(name: str, string: str, check, text: str):
    if check is None:
        return text
    if isinstance(check, tuple):
        if text not in check:
            raise _UsageError(name, f"argument {string}: invalid choice: {text!r} "
                                    f"(choose from {', '.join(check)})")
        return text
    try:
        return check(text)
    except ValueError as e:
        raise _UsageError(name, f"argument {string}: {e}") from None


def _help(name: Optional[str], opt: tuple[str, Optional[str]]):
    if opt[1] is not None:
        raise _UsageError(name, f"argument -h/--help: ignored explicit argument {opt[1]!r}")
    raise _Help(_help_text(name))


def _spec(option: tuple) -> str:
    string, default, check, _ = option
    if check is _FLAG:
        return string
    if isinstance(check, tuple):
        return f"{string} {{{','.join(check)}}}"
    return f"{string} {_dest(string).upper()}"


def _usage(name: Optional[str]) -> str:
    if name is None:
        return "usage: privcalc [-h] COMMAND ..."
    command = COMMANDS[name]
    parts = [_spec(o) if o[1] is _REQUIRED else f"[{_spec(o)}]" for o in command.options]
    return " ".join(["usage: privcalc", name, "[-h]", *parts, command.positional])


def _help_text(name: Optional[str]) -> str:
    """The `-h` text: the commands and their help lines at the top, a
    command's positional and options below it."""
    if name is None:
        rows = [(n, c.help) for n, c in COMMANDS.items()]
        about = "workbench for permission policies over the group calculus"
        heading, tail = "commands", ["", "`privcalc COMMAND -h` lists a command's options."]
    else:
        command = COMMANDS[name]
        rows = [(command.positional, "input file"), ("-h, --help", "show this help and exit")]
        rows += [(_spec(o), o[3] + (" (required)" if o[1] is _REQUIRED else ""))
                 for o in command.options]
        about, heading, tail = command.help, "arguments", []
    width = max(len(r[0]) for r in rows) + 2
    return "\n".join([_usage(name), "", about, "", f"{heading}:",
                      *(f"  {spec.ljust(width)}{text}" for spec, text in rows), *tail])


def main(argv: Optional[list[str]] = None) -> int:
    try:
        name, args = read_argv(sys.argv[1:] if argv is None else argv)
    except _Help as e:
        print(e.args[0])
        return EXIT_OK
    except _UsageError as e:
        name, message = e.args
        print(_usage(name), file=sys.stderr)
        print(f"privcalc{' ' + name if name else ''}: error: {message}", file=sys.stderr)
        return EXIT_ERROR
    try:
        code = COMMANDS[name].run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: what is left, and the flush at exit, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except _CliError as e:
        return _fail(*e.args)
    except (TypingError, KernelError) as e:
        return _fail(str(e))
    except Exception as e:
        # a crash is not a finding: keep it out of exit code 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
