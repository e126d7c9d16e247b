"""Former decisions of `privcalc.encoding`, kept as references for the tests.

- `all_atoms` is the walker that listed every place a token can sit in a
  term; `encoding._all_atoms` now reads the tokens off the printer's text.
- `source_steps` is the dedup of the source's successors by equality of
  their normal forms; `check_correspondence` now tells them apart by
  `kernel._alpha_key`.
"""

from privcalc.kernel import (
    Block, DConst, IVar, Known, PIf, PInp, POut, PStore, TConst, TDual, TName,
    TPriv, TVar, children, normalize, placeholder_vars,
)
from privcalc.semantics import tau_successors


def all_atoms(p) -> set[str]:
    """Every token in the term, bound or free, found by walking it."""
    out: set[str] = set()

    def term(t):
        match t:
            case TName(n) | TDual(n) | TVar(n):
                out.add(n)
            case TConst(c):
                out.add(c)
            case TPriv(pd):
                if isinstance(pd.identity, Known):
                    out.add(pd.identity.ident)
                elif isinstance(pd.identity, IVar):
                    out.add(pd.identity.name)
                out.add(pd.data.token if isinstance(pd.data, DConst) else pd.data.name)

    stack = [p]
    while stack:
        nd = stack.pop()
        match nd:
            case POut(s, objs, _):
                for t in (s, *objs):
                    term(t)
            case PInp(s, pats, _):
                term(s)
                for k in pats:
                    out.update(placeholder_vars(k))
            case Block(binders, _):
                out.update(n for n, _ in binders)
            case PIf(_, a, b, _, _):
                term(a)
                term(b)
            case PStore(ref, datum):
                out.add(ref)
                term(TPriv(datum))
        stack.extend(children(nd))
    return out


def source_steps(p) -> list:
    """The normal forms of `p`'s internal successors, equal ones once, in
    order of first occurrence: normal forms are canonically renamed, so
    alpha-equivalent successors are equal."""
    return list(dict.fromkeys(normalize(s) for s in tau_successors(p)))
