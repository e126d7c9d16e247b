"""Plain versions of two kernel computations, kept as test oracles.

`free` walks the whole term for its free atoms, as the kernel did before it
kept each node's free atoms on the node and built them from its children's.
`sort_block` gives every component a second, coloured sort key, as the
kernel did before it reused the first key where the colours cannot differ.
"""

from privcalc.kernel import (
    Block, DVar, Group, IVar, PIf, PInp, PNil, POut, PRepl, PStore, SBare,
    TConst, TDual, TName, TPriv, TVar, _erased_key, free_names,
    placeholder_vars,
)


def free(node) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The node's free names and free variables, each in order of first
    free occurrence."""
    names: dict[str, None] = {}
    vs: dict[str, None] = {}

    def walk(nd, bound_names: frozenset, bound_vars: frozenset) -> None:
        match nd:
            case TName(n) | TDual(n):
                if n not in bound_names:
                    names[n] = None
            case TVar(x):
                if x not in bound_vars:
                    vs[x] = None
            case TConst(_) | PNil():
                pass
            case TPriv(pd):
                for v in (pd.identity, pd.data):
                    if isinstance(v, (IVar, DVar)) and v.name not in bound_vars:
                        vs[v.name] = None
            case POut(subject, objects, cont):
                for t in (subject, *objects):
                    walk(t, bound_names, bound_vars)
                walk(cont, bound_names, bound_vars)
            case PInp(subject, patterns, cont):
                walk(subject, bound_names, bound_vars)
                newly = {x for k in patterns for x in placeholder_vars(k)}
                walk(cont, bound_names, bound_vars | newly)
            case Block(binders, comps):
                inner = bound_names | {n for n, _ in binders}
                for c in comps:
                    walk(c, inner, bound_vars)
            case PRepl(body) | Group(_, body) | SBare(body):
                walk(body, bound_names, bound_vars)
            case PIf(_, lhs, rhs, then, els):
                for part in (lhs, rhs, then, els):
                    walk(part, bound_names, bound_vars)
            case PStore(ref, datum):
                if ref not in bound_names:
                    names[ref] = None
                walk(TPriv(datum), bound_names, bound_vars)
            case _:
                raise AssertionError(f"unexpected node {nd!r}")

    walk(node, frozenset(), frozenset())
    return tuple(names), tuple(vs)


def sort_block(comps: list, binder_names, names, vs) -> list:
    """The components in canonical order, each sorted by its coloured key."""
    holes = dict.fromkeys(vs, "_")
    uniform = dict.fromkeys(names, "_") | dict.fromkeys(binder_names, "ν")
    touching: dict[str, list[str]] = {n: [] for n in binder_names}
    for c in comps:
        key = _erased_key(c, uniform, holes)
        for n in free_names(c):
            if n in touching:
                touching[n].append(key)
    colors = dict.fromkeys(names, "_")
    for n, keys in touching.items():
        colors[n] = "ν(" + "|".join(sorted(keys)) + ")"
    return sorted(comps, key=lambda c: _erased_key(c, colors, holes))
