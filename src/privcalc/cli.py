"""Command-line entry point: typecheck, verify, simulate, errors, scan,
encode and policy-wf over system/policy/environment files.

Exit codes: 0 success or satisfied, 1 violation or finding, 2 usage, parse
or typing failure, 3 internal error, 141 (128 + SIGPIPE) standard output
closed before everything was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .encoding import EncodingError, check_correspondence, encode, render_core
from .kernel import KernelError
from .policy import check_wellformed
from .safety import detect_errors, safety_scan
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
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


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
        raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")
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
        print(report.render())
        if not report.ok:
            return EXIT_VIOLATION
    return EXIT_OK


def _cmd_errors(args) -> int:
    gamma = _load(args.env, parse_env)
    policy = _load(args.policy, parse_policy)
    system = _load(args.file, parse_system, gamma)
    findings = detect_errors(policy, gamma, system, id_direction=args.id_direction,
                             countlink_literal=args.countlink_literal)
    if args.format == "records":
        for f in findings:
            rec = f.record()
            print(" ".join(f"{k}={rec[k]}" for k in
                           ("clause", "type", "path", "permission")))
    else:
        if not findings:
            print(_paint("no findings", "32"))
        for f in findings:
            print(f.render())
    return EXIT_VIOLATION if findings else EXIT_OK


def _cmd_scan(args) -> int:
    gamma = _load(args.env, parse_env)
    policy = _load(args.policy, parse_policy)
    system = _load(args.file, parse_system, gamma)
    report = safety_scan(policy, gamma, system, args.depth,
                         id_direction=args.id_direction,
                         countlink_literal=args.countlink_literal)
    print(report.render())
    return EXIT_VIOLATION if report.findings else EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="privcalc",
        description="workbench for permission policies over the group calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, env=True, policy=False, depth=None):
        if env:
            p.add_argument("--env", help="environment file (.env)")
        if policy:
            p.add_argument("--policy", required=True, help="policy file (.ppo)")
        if depth is not None:
            p.add_argument("--depth", type=_bound, default=depth)
        p.add_argument("--id-direction", choices=["anon", "known"], default="anon")
        p.add_argument("--format", choices=["text", "records", "dot"], default="text")

    p = sub.add_parser("typecheck", help="infer the permission interface")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_typecheck)

    p = sub.add_parser("verify", help="check a system against a policy")
    p.add_argument("file")
    common(p, policy=True)
    p.add_argument("--strict-coverage", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="explore internal steps")
    p.add_argument("file")
    common(p, depth=6)
    p.add_argument("--preserve", action="store_true",
                   help="also check type preservation along every edge")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("errors", help="static error-system detection")
    p.add_argument("file")
    common(p, policy=True)
    p.add_argument("--countlink-literal", action="store_true")
    p.set_defaults(fn=_cmd_errors)

    p = sub.add_parser("scan", help="error detection over reachable states")
    p.add_argument("file")
    common(p, policy=True, depth=6)
    p.add_argument("--countlink-literal", action="store_true")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("encode", help="translate to core pi with select/branch")
    p.add_argument("file")
    common(p)
    p.add_argument("--correspondence", type=_bound, metavar="BOUND",
                   help="also check operational correspondence up to BOUND")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("policy-wf", help="check policy well-formedness")
    p.add_argument("policy")
    p.set_defaults(fn=_cmd_policy_wf)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
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
