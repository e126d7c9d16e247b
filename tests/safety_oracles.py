"""The error detector as it was before it read a group context in one walk,
kept as a test oracle.

`count_links` walks the process on its own for every target it is asked
about, and `_scan_budgets` calls it once per (policy type, budgeted group,
ground) for clause 10. `_scan_process` and `_scan_component` walk the same
process again for the other clauses. `_grants` reads the permissions along
a group path through `policy.flatten` and then walks the same path again by
hand for the nondisclosure ancestors. Each clause tests its own kind of
permission in the grant (`_has_kind`, a dissemination budget, a usage
purpose or an identify entry), where the detector asks `policy.covers`.
`detect_errors` runs them at every group context, as the detector did.
"""

from typing import Optional

from privcalc.kernel import (
    Block, Group, PIf, PInp, PNil, POut, PPair, PRepl, PStore, Process,
    Record, SBare, System, TChan, TName, TPrivate, Term, normalize,
)
from privcalc.policy import (
    Hierarchy, NotFound, PermSet, Policy, flatten, hierarchy_groups, identify,
)
from privcalc.safety import (
    ErrorFinding, _emit, _grounds_of, _object_type, _subject_type, _unifiable,
)
from privcalc.syntax import Gamma, render_process
from privcalc.typesys import TypingError, _bind_block, _bind_pattern, _resolve_operand


def _is_ref_to(ty) -> bool:
    return (isinstance(ty, TChan) and len(ty.payload) == 1
            and isinstance(ty.payload[0], TPrivate))


def count_links(p: Process, gamma: Gamma, target: TChan, literal: bool = False,
                subject_group: Optional[str] = None) -> int:
    if not (len(target.payload) == 1 and isinstance(target.payload[0], TPrivate)):
        raise ValueError("count_links target must be a reference type")
    want_payload = target.payload[0]

    def obj_hit(gamma2: Gamma, obj: Term) -> bool:
        ty = _object_type(gamma2, obj)
        if literal:
            return ty == want_payload
        if subject_group is not None:
            return _is_ref_to(ty) and ty.payload[0] == want_payload
        return ty == target

    def go(nd: Process, gamma2: Gamma) -> int:
        match nd:
            case PNil() | PStore(_, _):
                return 0
            case POut(subject, objects, cont):
                n = 0
                sty = _subject_type(gamma2, subject)
                group_ok = subject_group is None or (sty is not None
                                                     and sty.group == subject_group)
                if group_ok:
                    n += sum(1 for o in objects if obj_hit(gamma2, o))
                return n + go(cont, gamma2)
            case PInp(subject, patterns, cont):
                g3 = gamma2
                sty = _subject_type(gamma2, subject)
                if sty is not None and len(sty.payload) == len(patterns):
                    annots = nd.annots or tuple(None for _ in patterns)
                    for k, ty, an in zip(patterns, sty.payload, annots):
                        try:
                            g3 = _bind_pattern(g3, k, ty, an)
                        except TypingError:
                            pass
                return go(cont, g3)
            case Block(_, comps):
                g3, _, _ = _bind_block(gamma2, nd)
                return sum(go(c, g3) for c in comps)
            case PRepl(body):
                return go(body, gamma2)
            case PIf(_, _, _, then, els):
                return go(then, gamma2) + go(els, gamma2)
        return 0

    return go(p, gamma)


class _ClauseCtx(Record, frozen=False):
    policy: Policy
    path: tuple[str, ...]
    permis: dict[str, Optional[PermSet]]
    nd_nodes: dict[str, list[tuple[tuple[str, ...], Hierarchy]]]
    findings: list[ErrorFinding]
    id_direction: str
    countlink_literal: bool


def _perm_of(ctx: _ClauseCtx, t: str) -> PermSet:
    ps = ctx.permis.get(t)
    return ps if ps is not None else PermSet()


def _has_kind(ps: PermSet, kind: str) -> bool:
    return any(p.kind == kind for p in ps)


def _grants(policy: Policy, path: tuple[str, ...]) -> tuple[dict, dict]:
    permis: dict[str, Optional[PermSet]] = {}
    nd_nodes: dict[str, list[tuple[tuple[str, ...], Hierarchy]]] = {}
    for t in policy.types():
        h = policy.lookup(t)
        flat = flatten(h, path) if path else NotFound((), "<root>")
        permis[t] = None if isinstance(flat, NotFound) else flat.perms
        nodes: list[tuple[tuple[str, ...], Hierarchy]] = []
        node = h
        walked: tuple[str, ...] = ()
        if path and h.group == path[0]:
            walked = (h.group,)
            if node.perms.nondiscloses():
                nodes.append((walked, node))
            for g in path[1:]:
                node = next((c for c in node.children if c.group == g), None)
                if node is None:
                    break
                walked = walked + (g,)
                if node.perms.nondiscloses():
                    nodes.append((walked, node))
        nd_nodes[t] = nodes
    return permis, nd_nodes


def _scan_if(ctx: _ClauseCtx, gamma: Gamma, nd: PIf):
    try:
        a = _resolve_operand(gamma, nd.lhs, nd.span)
        b = _resolve_operand(gamma, nd.rhs, nd.span)
    except TypingError:
        return
    if a.kind == "private" and b.kind == "private" and a.hidden != b.hidden:
        known, anon = (b, a) if a.hidden else (a, b)
        if ctx.id_direction == "known":
            holder, other = known.ptype, anon.ptype
        else:
            holder, other = anon.ptype, known.ptype
        if holder in ctx.permis and identify(other) not in _perm_of(ctx, holder):
            _emit(ctx, 9, holder, f"identify {other}", nd, nd.span)
    if {"private", "purpose"} == {a.kind, b.kind}:
        datum, purp = (a, b) if a.kind == "private" else (b, a)
        if (not datum.hidden or nd.op == ">") and datum.ptype in ctx.permis:
            purposes = {p.purpose for p in _perm_of(ctx, datum.ptype) if p.kind == "usage"}
            if purp.ptype not in purposes:
                _emit(ctx, 8, datum.ptype, f"usage {purp.ptype}", nd, nd.span)


def _scan_process(ctx: _ClauseCtx, gamma: Gamma, p: Process):
    comps = [p]
    if isinstance(p, Block):
        gamma, _, _ = _bind_block(gamma, p)
        comps = p.comps
    stores = [c for c in comps if isinstance(c, PStore)]
    for i in range(len(stores)):
        for j in range(i + 1, len(stores)):
            s1, s2 = stores[i], stores[j]
            if not _unifiable(s1.datum.identity, s2.datum.identity):
                continue
            pair = f"{render_process(s1)} | {render_process(s2)}"
            for st in (s1, s2):
                ty = _subject_type(gamma, TName(st.ref))
                if _is_ref_to(ty):
                    t = ty.payload[0].ptype
                    if t in ctx.permis and not _has_kind(_perm_of(ctx, t), "aggregate"):
                        _emit(ctx, 7, t, "aggregate", pair, st.span)
    for c in comps:
        _scan_component(ctx, gamma, c)


def _scan_component(ctx: _ClauseCtx, gamma: Gamma, nd: Process):
    match nd:
        case PNil():
            return
        case PStore(ref, _):
            ty = _subject_type(gamma, TName(ref))
            if _is_ref_to(ty):
                t = ty.payload[0].ptype
                if t in ctx.permis and not _has_kind(_perm_of(ctx, t), "store"):
                    _emit(ctx, 6, t, "store", nd, nd.span)
            return
        case POut(subject, objects, cont):
            sty = _subject_type(gamma, subject)
            if sty is not None and len(sty.payload) == len(objects):
                for want in sty.payload:
                    if isinstance(want, TPrivate) and want.ptype in ctx.permis:
                        if not _has_kind(_perm_of(ctx, want.ptype), "update"):
                            _emit(ctx, 2, want.ptype, "update", nd, nd.span)
                    if _is_ref_to(want):
                        t = want.payload[0].ptype
                        if t in ctx.permis:
                            allowed = _perm_of(ctx, t)
                            if allowed.diss_budget(sty.group) is None:
                                _emit(ctx, 4, t, f"disseminate {sty.group}", nd, nd.span)
                            for npath, hnode in ctx.nd_nodes.get(t, []):
                                if sty.group not in hierarchy_groups(hnode):
                                    _emit(ctx, 11, t,
                                          f"nondisclosure at {'.'.join(npath)} "
                                          f"but link sent on a {sty.group} channel",
                                          nd, nd.span)
            _scan_process(ctx, gamma, cont)
            return
        case PInp(subject, patterns, cont):
            sty = _subject_type(gamma, subject)
            g2 = gamma
            if sty is not None and len(sty.payload) == len(patterns):
                annots = nd.annots or tuple(None for _ in patterns)
                for k, want, an in zip(patterns, sty.payload, annots):
                    if isinstance(want, TPrivate) and want.ptype in ctx.permis:
                        allowed = _perm_of(ctx, want.ptype)
                        if not _has_kind(allowed, "read"):
                            _emit(ctx, 1, want.ptype, "read", nd, nd.span)
                        if isinstance(k, PPair) and not _has_kind(allowed, "readId"):
                            _emit(ctx, 5, want.ptype, "readId", nd, nd.span)
                    if _is_ref_to(want):
                        t = want.payload[0].ptype
                        if t in ctx.permis and not _has_kind(_perm_of(ctx, t), "reference"):
                            _emit(ctx, 3, t, "reference", nd, nd.span)
                    try:
                        g2 = _bind_pattern(g2, k, want, an)
                    except TypingError:
                        pass
            _scan_process(ctx, g2, cont)
            return
        case PRepl(body):
            _scan_process(ctx, gamma, body)
            return
        case PIf(_, _, _, then, els):
            _scan_if(ctx, gamma, nd)
            _scan_process(ctx, gamma, then)
            _scan_process(ctx, gamma, els)
            return
        case Block():
            _scan_process(ctx, gamma, nd)
            return


def _scan_budgets(ctx: _ClauseCtx, gamma: Gamma, p: Process):
    for t in ctx.policy.types():
        allowed = ctx.permis.get(t)
        if allowed is None:
            continue
        grounds = _grounds_of(gamma, t)
        for group in sorted(allowed.diss_groups()):
            lam = allowed.diss_budget(group)
            if lam is None or lam.unlimited:
                continue
            total = 0
            for ground in sorted(grounds):
                target = TChan(group, (TPrivate(t, ground),))
                if ctx.countlink_literal:
                    total += count_links(p, gamma, target, literal=True)
                else:
                    total += count_links(p, gamma, target, literal=False,
                                         subject_group=group)
            if total > (lam.count or 0):
                _emit(ctx, 10, t,
                      f"disseminate {group} {lam} exceeded ({total} outputs)",
                      render_process(p))


def detect_errors(policy: Policy, gamma: Gamma, s: System,
                  id_direction: str = "anon",
                  countlink_literal: bool = False) -> list[ErrorFinding]:
    findings: list[ErrorFinding] = []

    def walk(node: System, path: tuple[str, ...], g: Gamma):
        match node:
            case Group(group, body):
                walk(body, path + (group,), g)
            case Block(_, comps):
                g2, _, _ = _bind_block(g, node)
                for c in comps:
                    walk(c, path, g2)
            case SBare(proc):
                permis, nd_nodes = _grants(policy, path)
                ctx = _ClauseCtx(policy, path, permis, nd_nodes, findings,
                                 id_direction, countlink_literal)
                _scan_process(ctx, g, normalize(proc))
                _scan_budgets(ctx, g, proc)

    walk(normalize(s), (), gamma)
    return sorted(set(findings), key=lambda f: (f.clause, f.ptype, f.group_path,
                                                f.permission, f.subterm))
