"""Static error-system detection against a policy, reference counting for
dissemination budgets, and the bounded safety scan over reachable states."""

from __future__ import annotations

from typing import Optional

from .kernel import (
    Block, Group, IVar, Known, NIL, PIf, PInp, POut, PRepl, PStore, PrivacyType,
    Process, Record, SBare, Span, System, TChan, TName, TPrivate, TVar, Term,
    field, normalize, placeholder_vars, replace, _canonical_shaped, _hoisted,
    _setattr,
)
from .policy import (
    EMPTY_PERMS, Lambda, Nondisclosure, Perm, PermSet, Policy, covers, descent,
)
from .syntax import Gamma, render_process, render_term
from .typesys import (TypingError, _aggregated_perms, _bind_block, _bind_pattern,
                      _match_perms, _received_perms, _ref_target, _resolve_operand,
                      _sent_perms, _stored_perms, type_value)
from .semantics import explore

__all__ = ["ErrorFinding", "Unchecked", "count_links", "detect_errors", "error_report",
           "safety_scan", "ScanReport"]


class ErrorFinding(Record):
    clause: int
    ptype: str
    group_path: tuple[str, ...]
    permission: str
    subterm: str
    span: Optional[Span] = field(default=None, compare=False)

    def render(self) -> str:
        path = ".".join(self.group_path) or "<bare>"
        return (f"clause {self.clause}: {self.ptype} at {path}: "
                f"{self.permission} [{self.subterm}]")

    def record(self) -> dict:
        return {
            "clause": self.clause,
            "type": self.ptype,
            "path": ".".join(self.group_path),
            "permission": self.permission,
            "span": str(self.span) if self.span else "",
            "subterm": self.subterm,
        }


# what each kind of unchecked prefix is
UNCHECKED_KINDS = {"subject": "untyped subject", "arity": "arity mismatch",
                   "operand": "untyped operand", "pattern": "unbound pattern"}


class Unchecked(Record):
    """A prefix whose error clauses the detector could not read: its subject
    has no channel type, its channel carries another number of values, an
    operand of its condition has no type, or a pattern does not bind at the
    type the channel carries. Not a finding, but no verdict on the prefix."""
    kind: str  # a key of UNCHECKED_KINDS
    group_path: tuple[str, ...]
    subterm: str  # the prefix or condition, without what follows it
    span: Optional[Span] = field(default=None, compare=False)

    def render(self) -> str:
        path = ".".join(self.group_path) or "<bare>"
        at = f"{self.span}: " if self.span else ""
        return f"{at}{UNCHECKED_KINDS[self.kind]} at {path} [{self.subterm}]"

    def record(self) -> dict:
        return {"kind": self.kind, "path": ".".join(self.group_path),
                "span": str(self.span) if self.span else ""}


def _head(nd) -> str:
    """A prefix or condition, without its continuation or branches."""
    match nd:
        case PIf(op, lhs, rhs, _, _):
            return f"if {render_term(lhs)} {op} {render_term(rhs)}"
    return render_process(replace(nd, cont=NIL)).removesuffix(". 0")


def _subject_type(gamma: Gamma, subject) -> Optional[TChan]:
    if isinstance(subject, (TName, TVar)):
        ty = gamma.atom_type(subject.name)
        if isinstance(ty, TChan):
            return ty
    return None


def _object_type(gamma: Gamma, obj: Term) -> Optional[PrivacyType]:
    try:
        ty, _ = type_value(gamma, obj)
        return ty
    except TypingError:
        return None


Link = tuple[Optional[str], Optional[PrivacyType]]  # (channel group, object type)


def _count(links: list[Link], target: TChan, literal: bool,
           subject_group: Optional[str]) -> int:
    want_payload = target.payload[0]

    def hit(ty) -> bool:
        if literal:
            return ty == want_payload
        if subject_group is not None:
            return _ref_target(ty) == want_payload
        return ty == target

    return sum(1 for group, ty in links
               if (subject_group is None or group == subject_group) and hit(ty))


def count_links(p: Process, gamma: Gamma, target: TChan, literal: bool = False,
                subject_group: Optional[str] = None) -> int:
    """Count output prefixes whose object carries the target's payload.

    Default reading: the object's type is the reference type itself.
    Literal reading: the object's type is the bare payload type. With
    subject_group set, the carrying channel's group must match and the
    object may be a reference of any group to the payload (the
    dissemination shape a budget bounds).
    """
    if _ref_target(target) is None:
        raise ValueError("count_links target must be a reference type")
    return _count(_links(p, gamma), target, literal, subject_group)


Budget = tuple[str, str, Lambda]  # (policy type, group, finite budget)


class _ClauseCtx(Record, frozen=False):
    path: tuple[str, ...]
    permis: dict[str, PermSet]  # policy type -> accumulated grant
    nd_nodes: dict[str, tuple[Nondisclosure, ...]]
    findings: list[ErrorFinding]
    id_direction: str = "anon"
    links: Optional[list[Link]] = None  # output objects, when collected
    exact: bool = True  # False where the body may read otherwise normalized
    unchecked: list[Unchecked] = field(default_factory=list)


def _grants(policy: Policy, path: tuple[str, ...]) -> tuple[dict, dict, tuple[Budget, ...]]:
    """Accumulated permissions and nondisclosure-carrying ancestors along a
    group path, per policy-bound type, read from each hierarchy's kept
    descent (`policy.descent`); paths outside the hierarchy grant nothing.
    Then the finite dissemination budgets of the permissions, which clause
    10 counts against. All three are kept on the policy per path, shared by
    every context there and only read."""
    if (kept := policy._path_grants) is None:
        _setattr(policy, "_path_grants", kept := {})
    if path in kept:
        return kept[path]
    permis: dict[str, PermSet] = {}
    nd_nodes: dict[str, tuple[Nondisclosure, ...]] = {}
    budgets: list[Budget] = []
    for t, h in policy.bindings:
        if t in permis:
            continue  # a type bound twice is read by its first binding
        _, granted, nd_nodes[t] = descent(h, path)
        allowed = permis[t] = EMPTY_PERMS if granted is None else granted
        budgets += ((t, group, lam) for group in sorted(allowed.diss_groups())
                    if not (lam := allowed.diss_budget(group)).unlimited)
    return kept.setdefault(path, (permis, nd_nodes, tuple(budgets)))


def _emit(ctx: _ClauseCtx, clause: int, t: str, perm: str, nd, span=None):
    ctx.findings.append(ErrorFinding(clause, t, ctx.path, perm,
                                     render_process(nd) if not isinstance(nd, str) else nd,
                                     span))


_CLAUSES = {"read": 1, "update": 2, "reference": 3, "disseminate": 4, "readId": 5,
            "store": 6, "aggregate": 7, "usage": 8, "identify": 9}


def _require(ctx: _ClauseCtx, t: str, perm: Perm, nd, span: Optional[Span]):
    """Clauses 1-9, numbered by the permission's kind: report `perm` when the
    policy binds the private type `t` and its grant at this group path does
    not cover it. A dissemination is reported by its group alone."""
    if t in ctx.permis and not covers(ctx.permis[t], perm):
        text = f"disseminate {perm.group}" if perm.kind == "disseminate" else str(perm)
        _emit(ctx, _CLAUSES[perm.kind], t, text, nd, span)


def _skip(ctx: _ClauseCtx, kind: str, nd):
    """Note that the clauses at the prefix or condition `nd` are unread."""
    ctx.unchecked.append(Unchecked(kind, ctx.path, _head(nd), nd.span))


def _scan_if(ctx: _ClauseCtx, gamma: Gamma, nd: PIf):
    try:
        a = _resolve_operand(gamma, nd.lhs, nd.span)
        b = _resolve_operand(gamma, nd.rhs, nd.span)
    except TypingError:
        _skip(ctx, "operand", nd)
        return
    for t, perm in _match_perms(a, b, nd.op, ctx.id_direction):
        _require(ctx, t, perm, nd, nd.span)


def _unifiable(i1, i2) -> bool:
    if isinstance(i1, IVar) or isinstance(i2, IVar):
        return True
    return isinstance(i1, Known) and isinstance(i2, Known) and i1 == i2


def _scan(ctx: _ClauseCtx, gamma: Gamma, nd: Process):
    """Evaluate clauses 1-9 and 11 on a process, descending through
    prefixes and blocks with the environment extended by their bindings,
    and list every output object in `ctx.links` when it is a list. A
    prefix whose clauses cannot be read is noted in `ctx.unchecked`."""
    match nd:
        case Block():
            nd, gamma, settled = _bind(gamma, nd)
            ctx.exact &= settled
            # clause 7: parallel stores with unifiable identities
            stores = [c for c in nd.comps if isinstance(c, PStore)]
            for i, s1 in enumerate(stores):
                for s2 in stores[i + 1:]:
                    if not _unifiable(s1.datum.identity, s2.datum.identity):
                        continue
                    pair = Block((), (s1, s2))  # rendered `s1 | s2`
                    for st in (s1, s2):
                        target = _ref_target(_subject_type(gamma, TName(st.ref)))
                        if target is not None:
                            for t, perm in _aggregated_perms(target.ptype):
                                _require(ctx, t, perm, pair, st.span)
            for c in nd.comps:
                _scan(ctx, gamma, c)
        case PStore(ref, _):
            for t, perm in _stored_perms(_subject_type(gamma, TName(ref))):
                _require(ctx, t, perm, nd, nd.span)
        case POut(subject, objects, cont):
            sty = _subject_type(gamma, subject)
            if _typed(ctx, sty, len(objects), nd):
                for want in sty.payload:
                    for t, perm in _sent_perms(want, sty.group):
                        _require(ctx, t, perm, nd, nd.span)
                    target = _ref_target(want)
                    for npath, groups in ctx.nd_nodes.get(target.ptype, ()) if target else ():
                        if sty.group not in groups:
                            _emit(ctx, 11, target.ptype, f"nondisclosure at {'.'.join(npath)} "
                                  f"but link sent on a {sty.group} channel", nd, nd.span)
            if ctx.links is not None:
                group = sty.group if sty is not None else None
                ctx.links += ((group, _object_type(gamma, o)) for o in objects)
            _scan(ctx, gamma, cont)
        case PInp(subject, patterns, cont):
            sty = _subject_type(gamma, subject)
            inner = gamma
            bound = []
            if _typed(ctx, sty, len(patterns), nd):
                annots = nd.annots or tuple(None for _ in patterns)
                for k, want, an in zip(patterns, sty.payload, annots):
                    for t, perm in _received_perms(k, want):
                        _require(ctx, t, perm, nd, nd.span)
                    try:
                        inner = _bind_pattern(inner, k, want, an)
                    except TypingError:
                        _skip(ctx, "pattern", nd)
                        continue
                    bound.append(k)
            if ctx.exact and _hides(gamma, inner, patterns, bound):
                ctx.exact = False
            _scan(ctx, inner, cont)
        case PRepl(body):
            _scan(ctx, gamma, body)
        case PIf(_, _, _, then, els):
            _scan_if(ctx, gamma, nd)
            _scan(ctx, gamma, then)
            _scan(ctx, gamma, els)


def _typed(ctx: _ClauseCtx, sty: Optional[TChan], arity: int, nd) -> bool:
    """Whether the clauses of the prefix `nd` can be read: its subject has a
    channel type `sty` that carries `arity` values. If not, it is noted."""
    if sty is None:
        _skip(ctx, "subject", nd)
    elif len(sty.payload) != arity:
        _skip(ctx, "arity", nd)
    else:
        return True
    return False


def _bind(gamma: Gamma, nd: Block) -> tuple[Block, Gamma, bool]:
    """The block to walk, as `normalize` merges it (`_hoisted`, the block
    itself in a normal form), the environment extended by its
    restrictions, and whether the clauses read the block as in its own
    normal form: not if a binder is unannotated, since its inferred type
    reads the environment under its name, which renaming changes, nor if a
    binder hides an environment entry (in a normal form only where the
    environment has a name of the canonical renaming's shape, and
    `_Detector.fast` is false). Binders
    that `normalize` drops as unused stay: only clause 10 reads the
    environment beyond the names in use, through `_grounds_of`, and a wider
    one can only raise its counts."""
    nd = _hoisted(nd)
    inner, _, _ = _bind_block(gamma, nd)
    return nd, inner, not any(a is None or _entries(gamma, n) for n, a in nd.binders)


def _entries(gamma: Gamma, name: str) -> tuple:
    """The entries of the environment that a binder of this name hides:
    the name's type, and each private-data entry with the name in its key."""
    return (((gamma.atoms[name],) if name in gamma.atoms else ())
            + tuple(item for item in gamma.privs.items() if name in item[0]))


def _hides(before: Gamma, after: Gamma, patterns, bound: list) -> bool:
    """Whether an input's pattern variables hide entries of the environment
    `before`: a variable that has some, unless its pattern is one of those
    `bound` and the binding left its entries in `after` as they were (an
    input repeated on one channel binds its variables again alike)."""
    for k in patterns:
        for x in placeholder_vars(k):
            old = _entries(before, x)
            if old and (k not in bound or _entries(after, x) != old):
                return True
    return False


def _links(p: Process, gamma: Gamma) -> list[Link]:
    """The (channel group, object type) of every output object in `p`, in
    one walk under a context that grants nothing and so reports nothing."""
    ctx = _ClauseCtx((), {}, {}, [], links=[])
    _scan(ctx, gamma, p)
    return ctx.links


def _grounds_of(gamma: Gamma, t: str) -> set[str]:
    """Ground types the environment associates with a private type, via its
    data entries and any channel payload mentioning it."""
    out = {ty.ground for ty in gamma.privs.values() if ty.ptype == t}

    def scan_ty(ty):
        if isinstance(ty, TPrivate) and ty.ptype == t:
            out.add(ty.ground)
        elif isinstance(ty, TChan):
            for sub in ty.payload:
                scan_ty(sub)

    for ty in gamma.atoms.values():
        scan_ty(ty)
    return out


def _scan_budgets(ctx: _ClauseCtx, gamma: Gamma, p: Process, literal: bool,
                  budgets: tuple[Budget, ...], links: list[Link]):
    """Clause 10: a finite dissemination budget exceeded by the number of
    link outputs in the context process, counted from its link list."""
    for t, group, lam in budgets:
        total = sum(_count(links, TChan(group, (TPrivate(t, ground),)), literal,
                           None if literal else group)
                    for ground in _grounds_of(gamma, t))
        if total > (lam.count or 0):
            _emit(ctx, 10, t, f"disseminate {group} {lam} exceeded ({total} outputs)",
                  render_process(p))


class _Detector:
    """The error clauses at every group context of systems, against one
    policy and environment.

    A context's findings are those of the clauses on its body's own normal
    form (clause 10 counts on the body as it sits), with the environment
    extended by the blocks above it, all as in the system's normal form.
    Where `_bind` settles every block, finding none on the body as walked
    is the same verdict, so a context is checked there first; only one
    with a finding, or not settled, is normalized and checked again. A
    system with no normal form kept on it is walked as parsed, each block
    merged with its nested blocks, and its normal form (a state of
    `explore` is its own) when that walk is not settled.

    The findings of a context, and the prefixes in it whose clauses could
    not be read (`Unchecked`), are kept by its body (the object, never
    compared field by field), its group path and the bindings of the
    blocks above it, which fix its environment. A context that many
    states share is checked once, and each path of a hierarchy is
    descended once (`policy.descent`)."""

    __slots__ = ("policy", "gamma", "id_direction", "literal", "fast", "seen")

    def __init__(self, policy: Policy, gamma: Gamma, id_direction: str, literal: bool):
        self.policy = policy
        self.gamma = gamma
        self.id_direction = id_direction
        self.literal = literal
        # an environment token of the canonical renaming's shape could be
        # captured by a renamed binder: then every context is normalized
        self.fast = not any(map(_canonical_shaped,
                                (*gamma.atoms, *(t for key in gamma.privs for t in key))))
        self.seen: dict[tuple, tuple[Process, list[ErrorFinding], list[Unchecked]]] = {}

    def check(self, s: System) -> tuple[list[ErrorFinding], list[Unchecked]]:
        """The findings in `s`, and the prefixes whose clauses were not read."""
        found: list[ErrorFinding] = []
        unchecked: list[Unchecked] = []
        if not (s._norm is None and self.fast
                and self._walk(s, (), (), self.gamma, found, unchecked, True)):
            found, unchecked = [], []
            self._walk(normalize(s), (), (), self.gamma, found, unchecked, False)
        # deterministic order, duplicates collapsed
        return (sorted(set(found), key=lambda f: (f.clause, f.ptype, f.group_path,
                                                  f.permission, f.subterm)),
                list(dict.fromkeys(unchecked)))

    def _walk(self, node: System, path: tuple[str, ...], scope: tuple, g: Gamma,
              found: list[ErrorFinding], unchecked: list[Unchecked], parsed: bool) -> bool:
        """Check every context below `node`, a system as parsed or a normal
        form, and add its findings to `found` and its unread prefixes to
        `unchecked`. In a parsed system, a block or a context that is not
        settled where it sits (see `_bind`) stops the walk, which gives
        False."""
        match node:
            case Group(group, body):
                return self._walk(body, path + (group,), scope, g, found, unchecked, parsed)
            case Block():
                node, g, settled = _bind(g, node)
                if parsed and not settled:
                    return False
                scope += tuple((n, g.atoms.get(n)) for n, _ in node.binders)
                return all(self._walk(c, path, scope, g, found, unchecked, parsed)
                           for c in node.comps)
            case SBare(proc):
                key = (id(proc), path, scope)
                hit = self.seen.get(key)
                if hit is None:
                    hit = self._context(proc, path, g, parsed)
                    if hit is None:
                        return False
                    self.seen[key] = hit
                found += hit[1]
                unchecked += hit[2]
        return True

    def _context(self, proc: Process, path: tuple[str, ...], g: Gamma, parsed: bool
                 ) -> Optional[tuple[Process, list[ErrorFinding], list[Unchecked]]]:
        permis, nd_nodes, budgets = _grants(self.policy, path)
        ctx = _ClauseCtx(path, permis, nd_nodes, [], self.id_direction,
                         [] if budgets else None, exact=self.fast)
        _scan(ctx, g, proc)
        links = ctx.links  # clause 10 counts on the body as it sits
        _scan_budgets(ctx, g, proc, self.literal, budgets, links)
        if ctx.exact and not ctx.findings:
            return proc, [], ctx.unchecked
        if parsed:
            return None
        ctx = _ClauseCtx(path, permis, nd_nodes, [], self.id_direction)
        _scan(ctx, g, normalize(proc))
        _scan_budgets(ctx, g, proc, self.literal, budgets, links)
        return proc, ctx.findings, ctx.unchecked


def detect_errors(policy: Policy, gamma: Gamma, s: System,
                  id_direction: str = "anon",
                  countlink_literal: bool = False) -> list[ErrorFinding]:
    """Evaluate the error clauses at every group context of the system's
    normal form, descending through prefixes with the environment extended
    by their bindings: on the system as parsed where that gives the same
    verdict, else on `normalize(s)`."""
    return error_report(policy, gamma, s, id_direction, countlink_literal)[0]


def error_report(policy: Policy, gamma: Gamma, s: System, id_direction: str = "anon",
                 countlink_literal: bool = False) -> tuple[list[ErrorFinding], list[Unchecked]]:
    """`detect_errors`, and the prefixes whose clauses it could not read."""
    return _Detector(policy, gamma, id_direction, countlink_literal).check(s)


def unchecked_summary(unchecked: list) -> str:
    """The verdict line of a check with no findings and some unread prefixes."""
    n = len(unchecked)
    return f"no findings; {n} {'prefix' if n == 1 else 'prefixes'} unchecked"


# the unchecked prefixes that a report shows
SHOWN_UNCHECKED = 5


class ScanReport(Record, frozen=False):
    states: int = 0
    findings: list[tuple[str, ErrorFinding]] = field(default_factory=list)
    truncated: bool = False
    unchecked: list[tuple[str, Unchecked]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """A clean verdict: no finding, and no prefix left unread."""
        return not self.findings and not self.unchecked

    def render(self) -> str:
        status = ("ok" if self.ok else "FINDINGS" if self.findings
                  else unchecked_summary(self.unchecked))
        lines = [f"safety scan: {status} ({self.states} states"
                 f"{', truncated' if self.truncated else ''})"]
        lines += [f"  [{key}] {f.render()}" for key, f in self.findings]
        if not self.findings:
            lines += [f"  [{key}] {u.render()}"
                      for key, u in self.unchecked[:SHOWN_UNCHECKED]]
        return "\n".join(lines)


def safety_scan(policy: Policy, gamma: Gamma, s: System, depth: int,
                id_direction: str = "anon",
                countlink_literal: bool = False) -> ScanReport:
    """Run the error detector on every state reachable within the bound."""
    graph = explore(s, depth)
    report = ScanReport(states=len(graph.nodes), truncated=graph.truncated)
    detector = _Detector(policy, gamma, id_direction, countlink_literal)
    for key in sorted(graph.nodes):
        found, unchecked = detector.check(graph.nodes[key])
        report.findings += ((key, f) for f in found)
        report.unchecked += ((key, u) for u in unchecked)
    return report
