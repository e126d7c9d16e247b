"""Reference reader for command lines: `build_parser` as `cli` had it
before it read argv against its command table, one `argparse` tree of the
seven commands, each with only the options and output forms its handler
has. Tests read generated command lines with both: where this
parser accepts one, the table's values must equal its namespace, and where
it exits, both must exit with the same code. `fn` is the table's handler
for the command, so that comparison checks the binding too."""

import argparse

from privcalc import cli


def _bound(text: str) -> int:
    """A `--depth` or `--correspondence` bound: an integer, 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="privcalc",
        description="workbench for permission policies over the group calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, policy=False, depth=None, form=None):
        p.add_argument("--env", help="environment file (.env)")
        if policy:
            p.add_argument("--policy", required=True, help="policy file (.ppo)")
        if depth is not None:
            p.add_argument("--depth", type=_bound, default=depth)
        p.add_argument("--id-direction", choices=["anon", "known"], default="anon")
        if form is not None:
            p.add_argument("--format", choices=["text", form], default="text")

    def handler(name):
        return cli.COMMANDS[name].run

    p = sub.add_parser("typecheck", help="infer the permission interface")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=handler("typecheck"))

    p = sub.add_parser("verify", help="check a system against a policy")
    p.add_argument("file")
    common(p, policy=True, form="records")
    p.add_argument("--strict-coverage", action="store_true")
    p.set_defaults(fn=handler("verify"))

    p = sub.add_parser("simulate", help="explore internal steps")
    p.add_argument("file")
    common(p, depth=6, form="dot")
    p.add_argument("--preserve", action="store_true",
                   help="also check type preservation along every edge")
    p.set_defaults(fn=handler("simulate"))

    p = sub.add_parser("errors", help="static error-system detection")
    p.add_argument("file")
    common(p, policy=True, form="records")
    p.add_argument("--countlink-literal", action="store_true")
    p.set_defaults(fn=handler("errors"))

    p = sub.add_parser("scan", help="error detection over reachable states")
    p.add_argument("file")
    common(p, policy=True, depth=6, form="records")
    p.add_argument("--countlink-literal", action="store_true")
    p.set_defaults(fn=handler("scan"))

    p = sub.add_parser("encode", help="translate to core pi with select/branch")
    p.add_argument("file")
    p.add_argument("--env", help="environment file (.env)")
    p.add_argument("--correspondence", type=_bound, metavar="BOUND",
                   help="also check operational correspondence up to BOUND")
    p.set_defaults(fn=handler("encode"))

    p = sub.add_parser("policy-wf", help="check policy well-formedness")
    p.add_argument("policy")
    p.set_defaults(fn=handler("policy-wf"))
    return ap
