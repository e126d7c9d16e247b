"""Plain versions of four kernel computations, kept as test oracles.

`free` walks the whole term for its free atoms, as the kernel did before it
kept each node's free atoms on the node and built them from its children's.
`_erased_key` writes a component's sort key with nested f-strings, one walk
per colouring, as the kernel did before it wrote each key to one list, in
one walk, with the block's binders as marks to substitute.
`sort_keys` gives every component a second, coloured sort key, as the
kernel did before it reused the first key where the colours cannot differ
and before block components kept their keys; `sort_block` sorts by them.
`canonical_rename` walks every block component, as the kernel did before
it kept a component's renaming on the component.

`core_canonical` walks a whole encoded state to evaluate its conditionals
and collect its inert servers, and normalizes it with the canonical
renaming, as the encoding did before it marked the components of core
forms and keyed states without renaming them.

`rebuild` copies a term, so that a test can normalize it again without the
normal form, renamings and state key that the kernel keeps on its nodes.
`same_spans` tells whether two equal terms carry the same spans, which
equality ignores.
"""

import itertools

from privcalc import kernel
from privcalc.kernel import (
    NIL, Block, DConst, DVar, Group, Hidden, IVar, KernelError, Known, PAnon,
    PIf, PInp, PNil, POut, PPair, PRepl, PStore, PVar, SBare, TConst, TDual,
    TName, TPriv, TVar, Term, children, free_atoms, is_system,
    normalize, placeholder_vars, replace, with_children,
)
from privcalc.semantics import _eval_cond


class _Walking(kernel._Numbering):
    """The kernel's numbering, renaming every component it is handed."""

    __slots__ = ()

    def component(self, c, names: dict, vs: dict):
        return kernel._rewrite(c, names, vs, self)


def canonical_rename(node):
    """`kernel._canonical_rename` without the renamings kept on nodes: it
    neither reads nor writes them."""
    return kernel._rewrite(node, {}, {}, _Walking(node))


def core_canonical(p):
    """`encoding.core_canonical` without the marks on core forms' components:
    it neither reads nor writes them."""
    cur = normalize(_eval_ifs(p))
    gc = _gc_inert(cur)
    return cur if gc is cur else normalize(gc)


def _eval_ifs(p):
    if isinstance(p, PIf):
        v = _eval_cond(p.op, p.lhs, p.rhs)
        if v is True:
            return _eval_ifs(p.then)
        if v is False:
            return _eval_ifs(p.els)
    return with_children(p, tuple(map(_eval_ifs, children(p))))


def _gc_inert(p):
    if not (isinstance(p, Block) and p.binders):
        return with_children(p, tuple(map(_gc_inert, children(p))))
    bs = p.binders
    live = [(c, free_atoms(c)) for c in map(_gc_inert, p.comps)]
    while True:
        dead = {n for n, _ in bs
                if all(isinstance(c, PRepl) and isinstance(c.body, PInp)
                       and c.body.subject == TName(n)
                       for c, atoms in live if n in atoms)}
        kept = [(c, atoms) for c, atoms in live if not dead & atoms]
        if len(kept) == len(live):
            break
        live = kept
    if not live:
        return NIL
    used = set().union(*(atoms for _, atoms in live))
    bs = tuple(b for b in bs if b[0] in used)
    comps = tuple(c for c, _ in live)
    return replace(p, binders=bs, comps=comps) if bs else kernel._block((), comps)


def rebuild(node):
    """An equal copy of the term, spans included, built node by node: it
    shares no record with the original and carries none of the facts the
    kernel keeps on records."""
    if type(node) is tuple:
        return tuple(map(rebuild, node))
    if not isinstance(node, kernel.Record):
        return node
    return type(node)(*(rebuild(getattr(node, f)) for f in node._fields))


def same_spans(a, b) -> bool:
    """Whether two equal nodes carry the same spans throughout."""
    if a is b:
        return True
    sa, sb = a.span, b.span
    return (sa is sb or sa == sb) and all(map(same_spans, children(a), children(b)))


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


def _erased_key(node, name_colors: dict[str, str], var_colors: dict[str, str]) -> str:
    """Serialization with bound tokens replaced positionally: the sort key
    for parallel components, stable under alpha-renaming. Free names and
    free variables are mapped through their colors so the names of binders
    around the component do not leak in. Names and variables are looked up
    apart, as in `free_atoms`."""
    counter = itertools.count()

    def name(n: str, names: dict[str, str]) -> str:
        return names[n] if n in names else name_colors.get(n, n)

    def var(x: str, vs: dict[str, str]) -> str:
        return vs[x] if x in vs else var_colors.get(x, x)

    def term(t: Term, names, vs) -> str:
        match t:
            case TName(n):
                return f"n:{name(n, names)}"
            case TDual(n):
                return f"d:{name(n, names)}"
            case TConst(c):
                return f"c:{c}"
            case TVar(x):
                return f"v:{var(x, vs)}"
            case TPriv(pd):
                i = pd.identity
                istr = (f"i:{i.ident}" if isinstance(i, Known)
                        else "_" if isinstance(i, Hidden) else f"iv:{var(i.name, vs)}")
                d = pd.data
                dstr = f"dc:{d.token}" if isinstance(d, DConst) else f"dv:{var(d.name, vs)}"
                return f"p:{istr}#{dstr}"
        raise KernelError(str(t))

    def go(nd, names: dict[str, str], vs: dict[str, str]) -> str:
        match nd:
            case PNil():
                return "0"
            case POut(s, objs, cont):
                return (f"out({term(s, names, vs)};"
                        f"{','.join(term(o, names, vs) for o in objs)};{go(cont, names, vs)})")
            case PInp(s, pats, cont):
                vs2 = dict(vs)
                ps = []
                for k in pats:
                    for x in placeholder_vars(k):
                        vs2[x] = f"β{next(counter)}"
                    match k:
                        case PVar(x):
                            ps.append(vs2[x])
                        case PPair(x, y):
                            ps.append(f"{vs2[x]}#{vs2[y]}")
                        case PAnon(y):
                            ps.append(f"_#{vs2[y]}")
                return f"inp({term(s, names, vs)};{','.join(ps)};{go(cont, names, vs2)})"
            case Block(binders, comps):
                res, par = ("sr", "sp") if is_system(comps[0]) else ("res", "par")
                names = dict(names)
                out = []
                for n, annot in binders:
                    names[n] = f"ν{next(counter)}"
                    out.append(f"{res}({annot};")
                # right-nested, par(k1|par(k2|k3)): the key format the
                # component order, and so every normal form, rests on
                keys = [go(c, names, vs) for c in comps]
                out += [f"{par}({k}|" for k in keys[:-1]]
                out.append(keys[-1] + ")" * (len(keys) - 1 + len(binders)))
                return "".join(out)
            case PRepl(body):
                return f"rep({go(body, names, vs)})"
            case PIf(op, lhs, rhs, then, els):
                return (f"if({op};{term(lhs, names, vs)};{term(rhs, names, vs)};"
                        f"{go(then, names, vs)};{go(els, names, vs)})")
            case PStore(ref, datum):
                return f"st({name(ref, names)};{term(TPriv(datum), names, vs)})"
            case Group(g, SBare(proc)):
                # `gp` sorts a group around a process before one around a
                # system: the order of mixed group siblings rests on it
                return f"gp({g};{go(proc, names, vs)})"
            case Group(g, body):
                return f"gs({g};{go(body, names, vs)})"
            case SBare(proc):
                return f"sb({go(proc, names, vs)})"
        raise KernelError(str(nd))

    return go(node, {}, {})


def sort_keys(comps: list, binder_names, names, vs) -> list[str]:
    """The coloured key of each component, written with one walk per
    colouring, from nothing kept on the components."""
    holes = dict.fromkeys(vs, "_")
    uniform = dict.fromkeys(names, "_") | dict.fromkeys(binder_names, "ν")
    touching: dict[str, list[str]] = {n: [] for n in binder_names}
    for c in comps:
        key = _erased_key(c, uniform, holes)
        for n in free(c)[0]:
            if n in touching:
                touching[n].append(key)
    colors = dict.fromkeys(names, "_")
    for n, keys in touching.items():
        colors[n] = "ν(" + "|".join(sorted(keys)) + ")"
    return [_erased_key(c, colors, holes) for c in comps]


def sort_block(comps: list, binder_names, names, vs) -> list:
    """The components in canonical order, each sorted by its coloured key."""
    keys = sort_keys(comps, binder_names, names, vs)
    return [comps[k] for k in sorted(range(len(comps)), key=keys.__getitem__)]