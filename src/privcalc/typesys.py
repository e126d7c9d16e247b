"""Permission inference: value and match typing, one typing walk over
process and system nodes (a process's permission environment, a system's
group-path interface), and the capability order over all of them.

The checker is syntax-directed: instead of subtracting binders from the
environment it extends the environment going under them, taking input
pattern types from the channel payload and restriction types from
annotations (with a narrow object-position inference fallback).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .kernel import (
    Block, DConst, DVar, Group, Hidden, IVar, Known, PAnon, PIf, PInp, PNil,
    POut, PPair, PRepl, PStore, PVar, Placeholder, PrivacyType, PrivateData,
    Process, Record, SBare, Span, System, TChan, TConst, TDual, TName, TPriv,
    TPrivate, TPurpose, TVar, Term, _setattr, children, field, placeholder_vars,
)
from .policy import (
    AGGREGATE, FlatHierarchy, OMEGA, Perm, PermSet, READ, READID,
    REFERENCE, STORE, UPDATE, covers, disseminate, identify, perm_union, usage,
)
from .syntax import Gamma, render_term

__all__ = [
    "TypingError", "Delta", "Theta", "ThetaEntry", "Typing",
    "type_value", "type_match", "type_process", "type_system",
    "interface_leq", "permset_leq", "EMPTY_DELTA",
]


class TypingError(Exception):
    def __init__(self, code: str, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span else ""
        return f"{self.code}{where}: {self.message}"


# --- permission environments -----------------------------------------------------

class Delta:
    """Maps private types to the permission sets a process exercises. Every
    Δ built here maps each type to a non-empty set, and a union of such
    sets is not empty, so `uplus` drops no type and returns one operand
    itself when the other is empty."""

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[dict[str, PermSet]] = None):
        self.entries = dict(entries or {})

    def uplus(self, other: "Delta") -> "Delta":
        if not other.entries:
            return self
        if not self.entries:
            return other
        out = dict(self.entries)
        for t, ps in other.entries.items():
            out[t] = perm_union(out[t], ps) if t in out else ps
        return Delta(out)

    def get(self, t: str) -> PermSet:
        return self.entries.get(t, PermSet())

    def types(self) -> list[str]:
        return sorted(self.entries)

    def star(self) -> "Delta":
        """Lift every finite dissemination budget to the unlimited one."""
        out: dict[str, PermSet] = {}
        for t, ps in self.entries.items():
            perms = [p if p.kind != "disseminate" else disseminate(p.group, OMEGA)
                     for p in ps]
            out[t] = PermSet(perms)
        return Delta(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Delta) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(sorted((t, ps) for t, ps in self.entries.items())))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}: {self.entries[t]!r}" for t in self.types())
        return "Delta(" + inner + ")"


EMPTY_DELTA = Delta()


def _delta_of(pairs: Iterable[tuple[str, Perm]]) -> Delta:
    """The environment exercising each (private type, permission) pair."""
    perms: dict[str, list[Perm]] = {}
    for t, perm in pairs:
        perms.setdefault(t, []).append(perm)
    return Delta({t: PermSet(ps) for t, ps in perms.items()}) if perms else EMPTY_DELTA


class ThetaEntry(Record):
    ptype: str
    path: tuple[str, ...]  # empty while a bare component awaits its group
    perms: PermSet

    def render(self) -> str:
        flat = FlatHierarchy(self.path or ("?",), self.perms)
        return f"{self.ptype}: {flat}"


class Theta:
    """The system interface: an order-preserving multiset of entries, a
    tuple, since a typing kept on a system is shared by every caller."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[ThetaEntry] = ()):
        self.entries = tuple(entries)

    def prefixed(self, group: str) -> "Theta":
        return Theta(ThetaEntry(e.ptype, (group,) + e.path, e.perms)
                     for e in self.entries)

    def concat(self, other: "Theta") -> "Theta":
        if not other.entries:
            return self
        if not self.entries:
            return other
        return Theta(self.entries + other.entries)

    def canonical(self) -> "Theta":
        return Theta(sorted(self.entries,
                            key=lambda e: (e.ptype, e.path, repr(e.perms))))

    def lookup(self, ptype: str, path: tuple[str, ...]) -> list[PermSet]:
        return [e.perms for e in self.entries if e.ptype == ptype and e.path == path]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Theta) and self.canonical().entries == other.canonical().entries

    def __repr__(self) -> str:
        return "Theta(" + "; ".join(e.render() for e in self.canonical().entries) + ")"


EMPTY_THETA = Theta()


class Typing(Record):
    """What a node exercises: its free store references Λ, and a process's
    stores by identity and permission environment Δ, or a system's
    interface Θ. The other family's parts are empty."""
    lam: frozenset[str]
    zrecs: tuple[tuple[tuple[str, str], str], ...] = ()  # ((kind, token), private type)
    delta: Delta = EMPTY_DELTA
    theta: Theta = EMPTY_THETA


# --- value typing ------------------------------------------------------------------

def _identity_key(i) -> tuple[str, str]:
    if isinstance(i, Known):
        return ("id", i.ident)
    if isinstance(i, IVar):
        return ("var", i.name)
    return ("hidden", "_")


def _identify_delta(ptype: str, identity) -> Delta:
    """What holding a datum of this identity exercises: readId on its type
    when the identity is not hidden, and nothing for an anonymous one."""
    if isinstance(identity, Hidden):
        return EMPTY_DELTA
    return Delta({ptype: PermSet([READID])})


def _resolve_priv(gamma: Gamma, pd: PrivateData, span=None) -> TPrivate:
    ty = gamma.priv_type(pd.identity, pd.data)
    if ty is not None:
        return ty
    # identity-instantiated literal: resolve by its constant component when
    # that resolution is unique (store updates produce such literals)
    if isinstance(pd.data, DConst):
        cands = {t for _, t in gamma.priv_types_for_data(pd.data.token)}
        if len(cands) == 1:
            return next(iter(cands))
    raise TypingError("UnboundTerm",
                      f"private data {render_term(TPriv(pd))} has no type", span)


def type_value(gamma: Gamma, v: Term, span=None) -> tuple[PrivacyType, Delta]:
    match v:
        case TName(tok) | TVar(tok):
            ty = gamma.atom_type(tok)
            if ty is None:
                raise TypingError("UnboundTerm", f"{tok} is not typed", span)
            return ty, EMPTY_DELTA
        case TConst(tok):
            ty = gamma.atom_type(tok)
            if ty is not None:
                return ty, EMPTY_DELTA
            privs = gamma.priv_types_for_data(tok)
            if len({t for _, t in privs}) == 1:
                # a datum component used as a bare term
                key, ty2 = privs[0]
                return ty2, _identify_delta(ty2.ptype, Known(key[0]) if key[0] != "_" else Hidden())
            raise TypingError("UnboundTerm", f"{tok} is not typed", span)
        case TPriv(pd):
            ty = _resolve_priv(gamma, pd, span)
            return ty, _identify_delta(ty.ptype, pd.identity)
        case TDual(tok):
            raise TypingError("UnboundTerm",
                              f"dual endpoint ~{tok} cannot be typed in user code", span)
    raise TypingError("UnboundTerm", f"cannot type {v!r}", span)


# --- match typing -------------------------------------------------------------------

class _Operand(Record):
    kind: str  # "private" | "purpose" | "name"
    ptype: Optional[str] = None
    ground: Optional[str] = None
    hidden: bool = False
    delta: Delta = field(default_factory=Delta)


def _resolve_operand(gamma: Gamma, t: Term, span=None) -> _Operand:
    match t:
        case TPriv(pd):
            ty = _resolve_priv(gamma, pd, span)
            return _Operand("private", ty.ptype, ty.ground,
                            hidden=isinstance(pd.identity, Hidden),
                            delta=_identify_delta(ty.ptype, pd.identity))
        case TVar(tok) | TConst(tok) | TName(tok):
            ty = gamma.atom_type(tok)
            if isinstance(ty, TPurpose):
                return _Operand("purpose", ty.purpose, ty.ground)
            if isinstance(ty, TChan):
                return _Operand("name")
            if isinstance(ty, TPrivate):
                return _Operand("private", ty.ptype, ty.ground, hidden=False,
                                delta=_delta_of([(ty.ptype, READID)]))
            # fall back to the private entry whose data component this token is
            privs = gamma.priv_types_for_data(tok)
            if privs:
                keys = {k for k, _ in privs}
                tys = {t2 for _, t2 in privs}
                if len(keys) > 1 or len(tys) > 1:
                    raise TypingError("IllTypedMatch",
                                      f"{tok} is data of several private entries", span)
                (itok, _), ty2 = privs[0]
                hidden = itok == "_"
                ident = Hidden() if hidden else Known(itok)
                return _Operand("private", ty2.ptype, ty2.ground, hidden=hidden,
                                delta=_identify_delta(ty2.ptype, ident))
            raise TypingError("UnboundTerm", f"{tok} is not typed", span)
    raise TypingError("IllTypedMatch", f"cannot match on {t!r}", span)


def type_match(gamma: Gamma, lhs: Term, rhs: Term, op: str = "=",
               id_direction: str = "anon", span=None) -> Delta:
    """Permissions exercised by comparing two terms: each identified
    operand's readId and those of `_match_perms`. Data compare when their
    ground types agree, and their private types too unless exactly one is
    anonymised; a datum compares with a purpose constant of its ground
    type, except an anonymised one under `=`."""
    a = _resolve_operand(gamma, lhs, span)
    b = _resolve_operand(gamma, rhs, span)
    if a.kind == "private" and b.kind == "private":
        if a.ground != b.ground:
            raise TypingError("IllTypedMatch",
                              f"ground types differ: {a.ground} vs {b.ground}", span)
        if a.hidden == b.hidden and a.ptype != b.ptype:
            raise TypingError("IllTypedMatch",
                              f"cannot compare {a.ptype} with {b.ptype}", span)
    elif {"private", "purpose"} == {a.kind, b.kind}:
        datum, purp = (a, b) if a.kind == "private" else (b, a)
        if datum.ground != purp.ground:
            raise TypingError("IllTypedMatch",
                              f"ground types differ: {datum.ground} vs {purp.ground}", span)
        if datum.hidden and op == "=":
            raise TypingError("IllTypedMatch",
                              "anonymised data cannot be matched against a purpose constant",
                              span)
    elif a.kind != b.kind:
        raise TypingError("IllTypedMatch",
                          f"cannot compare a {a.kind} with a {b.kind}", span)
    return a.delta.uplus(b.delta).uplus(_delta_of(_match_perms(a, b, op, id_direction)))


# --- the permissions each rule uses, as (private type, permission) pairs --------------
# Typing adds them to Δ; the error detector reports each that the grant lacks.

def _ref_target(ty) -> Optional[TPrivate]:
    """The private type that a reference type `G[t<g>]` points to, else None."""
    if isinstance(ty, TChan) and len(ty.payload) == 1 and isinstance(ty.payload[0], TPrivate):
        return ty.payload[0]
    return None


def _sent_perms(want: PrivacyType, group: str) -> list[tuple[str, Perm]]:
    """Sending an object of type `want` on a channel of `group`: update for
    private data, one unit of `disseminate group` for a reference's target."""
    if isinstance(want, TPrivate):
        return [(want.ptype, UPDATE)]
    target = _ref_target(want)
    return [(target.ptype, disseminate(group, 1))] if target else []


def _received_perms(pattern: Placeholder, want: PrivacyType) -> list[tuple[str, Perm]]:
    """Receiving an object of type `want` into `pattern`: read for private
    data, and readId too when a pair pattern binds its identity; reference
    for a reference's target."""
    if isinstance(want, TPrivate):
        if isinstance(pattern, PPair):
            return [(want.ptype, READ), (want.ptype, READID)]
        return [(want.ptype, READ)]
    target = _ref_target(want)
    return [(target.ptype, REFERENCE)] if target else []


def _match_perms(a: _Operand, b: _Operand, op: str,
                 id_direction: str) -> list[tuple[str, Perm]]:
    """Comparing two operands with `op`. A known-identity datum against an
    anonymous one uses identify, charged to the anonymous side's type
    unless `id_direction` is "known"; a datum against a purpose constant
    uses usage, except an anonymised datum tested with `=`."""
    if a.kind == b.kind == "private" and a.hidden != b.hidden:
        known, anon = (b, a) if a.hidden else (a, b)
        holder, other = (known, anon) if id_direction == "known" else (anon, known)
        return [(holder.ptype, identify(other.ptype))]
    if {"private", "purpose"} == {a.kind, b.kind}:
        datum, purp = (a, b) if a.kind == "private" else (b, a)
        if not (datum.hidden and op == "="):
            return [(datum.ptype, usage(purp.ptype))]
    return []


def _stored_perms(ref_ty) -> list[tuple[str, Perm]]:
    """A store behind a reference of type `ref_ty`: store on its target."""
    target = _ref_target(ref_ty)
    return [(target.ptype, STORE)] if target else []


def _aggregated_perms(*ptypes: str) -> list[tuple[str, Perm]]:
    """Stores of these types that may hold one identity: aggregate on each."""
    return [(t, AGGREGATE) for t in ptypes]


# --- the typing walk ----------------------------------------------------------------

def _subject_chan(gamma: Gamma, subject: Term, span=None) -> TChan:
    match subject:
        case TName(tok) | TVar(tok):
            ty = gamma.atom_type(tok)
            if ty is None:
                raise TypingError("UnboundTerm", f"subject {tok} is not typed", span)
            if not isinstance(ty, TChan):
                raise TypingError("UnboundTerm",
                                  f"subject {tok} has non-channel type {ty}", span)
            return ty
        case TDual(tok):
            raise TypingError("UnboundTerm",
                              f"dual endpoint ~{tok} cannot be typed in user code", span)
    raise TypingError("UnboundTerm", f"bad subject {subject!r}", span)


def _bind_pattern(gamma: Gamma, k: Placeholder, ty: PrivacyType,
                  annot: Optional[PrivacyType], span=None) -> Gamma:
    if annot is not None and annot != ty:
        raise TypingError("TypeMismatch",
                          f"annotation {annot} conflicts with payload type {ty}", span)
    match k:
        case PVar(x):
            declared = gamma.atom_type(x)
            if declared is not None and declared != ty:
                raise TypingError("TypeMismatch",
                                  f"{x} declared {declared} but bound at {ty}", span)
            return gamma.bind_atom(x, ty)
        case PPair(x, y):
            if not isinstance(ty, TPrivate):
                raise TypingError("TypeMismatch",
                                  f"pattern {x} # {y} needs private payload, got {ty}", span)
            declared = gamma.priv_type(IVar(x), DVar(y))
            if declared is not None and declared != ty:
                raise TypingError("TypeMismatch",
                                  f"{x} # {y} declared {declared} but bound at {ty}", span)
            return gamma.bind_priv(IVar(x), DVar(y), ty)
        case PAnon(y):
            if not isinstance(ty, TPrivate):
                raise TypingError("TypeMismatch",
                                  f"pattern _ # {y} needs private payload, got {ty}", span)
            declared = gamma.priv_type(Hidden(), DVar(y))
            if declared is not None and declared != ty:
                raise TypingError("TypeMismatch",
                                  f"_ # {y} declared {declared} but bound at {ty}", span)
            return gamma.bind_priv(Hidden(), DVar(y), ty)
    raise TypingError("TypeMismatch", f"bad placeholder {k!r}", span)


def _merge_lam(a: frozenset[str], b: frozenset[str], span=None) -> frozenset[str]:
    both = a & b
    if both:
        r = sorted(both)[0]
        raise TypingError("LinearityViolation",
                          f"store reference {r} is used by more than one store", span)
    return a | b


def _scope_types(gamma: Gamma, node: Block) -> dict[tuple[int, int], PrivacyType]:
    """The types of the restrictions of a scope block: `node` and the
    blocks nested in it as components, which `normalize` merges into one.
    Each binder is keyed by its block's id and its position there. An
    annotated binder has its annotation; the unannotated ones are inferred
    together, to a fixpoint. A binder's candidates are the payload types at
    which an output sends it as an object on a subject that Γ or a binder
    of the scope types, annotated or already inferred; each round types
    every binder with exactly one candidate, so binder order decides
    nothing. A subject or object that a later binder of the same name, an
    input or a restriction inside a component binds reads neither Γ nor
    the binder."""
    types: dict = {}
    # an unannotated binder's sends: (subject, payload position, arity), the
    # subject as the key of the scope binder that binds it or as its Γ type
    sends: dict = {}

    def scope(nd: Block, env: dict) -> None:
        env = dict(env)
        for k, (n, annot) in enumerate(nd.binders):
            env[n] = key = (id(nd), k)
            if annot is None:
                sends[key] = []
            else:
                types[key] = annot
        for c in nd.comps:
            if type(c) is Block:
                scope(c, env)
            else:
                scan(c, env)

    def scan(nd, env: dict) -> None:
        bound = ()
        match nd:
            case POut(s, objs, _) if isinstance(s, (TName, TVar)):
                for i, o in enumerate(objs):
                    if isinstance(o, (TName, TVar)) and env.get(o.name) in sends:
                        subject = env[s.name] if s.name in env else gamma.atom_type(s.name)
                        sends[env[o.name]].append((subject, i, len(objs)))
            case PInp(_, pats, _):
                bound = [v for k in pats for v in placeholder_vars(k)]
            case Block(bs, _):
                bound = [n for n, _ in bs]
        if bound:
            env = env | dict.fromkeys(bound)
        for child in children(nd):
            scan(child, env)

    scope(node, {})
    while True:
        found = {}
        for key, outs in sends.items():
            if key not in types:
                candidates = set()
                for subject, i, arity in outs:
                    sty = types.get(subject) if type(subject) is tuple else subject
                    if isinstance(sty, TChan) and len(sty.payload) == arity:
                        candidates.add(sty.payload[i])
                if len(candidates) == 1:
                    found[key] = candidates.pop()
        if not found:
            return types
        types.update(found)


def _bind_block(gamma: Gamma, node: Block, types: Optional[dict] = None
                ) -> tuple[Gamma, Optional[str], Optional[dict]]:
    """The environment extended with the block's restrictions, in order,
    typed as `_scope_types` types them; the first binder whose type cannot
    be determined, which stays unbound; and the binder types used, to hand
    to the blocks nested in it as components. `types` are those of the
    scope block that `node` belongs to, inferred at its outermost block
    with an unannotated binder; with none, a block whose binders are all
    annotated binds their annotations, and any other block infers its
    own scope."""
    if types is None and any(a is None for _, a in node.binders):
        types = _scope_types(gamma, node)
    missing = None
    for k, (n, annot) in enumerate(node.binders):
        ty = annot if types is None else types.get((id(node), k))
        if ty is not None:
            gamma = gamma.bind_atom(n, ty)
        elif missing is None:
            missing = n
    return gamma, missing, types


def type_process(gamma: Gamma, p: Process | System, id_direction: str = "anon") -> Typing:
    """The one typing walk, over process and system nodes alike."""
    match p:
        case PNil():
            return Typing(frozenset())

        case PStore(ref, datum):
            rty = gamma.atom_type(ref)
            if rty is None:
                raise TypingError("UnboundTerm", f"store reference {ref} is not typed", p.span)
            want = _ref_target(rty)
            if want is None:
                raise TypingError("TypeMismatch",
                                  f"store reference {ref} needs a G[t<g>] type, has {rty}",
                                  p.span)
            if isinstance(datum.identity, Hidden):
                raise TypingError("TypeMismatch",
                                  "a store cannot hold anonymised data", p.span)
            got = _resolve_priv(gamma, datum, p.span)
            if got != want:
                raise TypingError("TypeMismatch",
                                  f"store {ref} holds {got} but carries {want}", p.span)
            # the datum's readId is not exercised by merely holding it
            ikey = _identity_key(datum.identity)
            return Typing(frozenset([ref]), ((ikey, want.ptype),),
                          _delta_of(_stored_perms(rty)))

        case POut(subject, objects, cont):
            sty = _subject_chan(gamma, subject, p.span)
            if len(objects) != len(sty.payload):
                raise TypingError("ArityMismatch",
                                  f"output carries {len(objects)} objects on a "
                                  f"{len(sty.payload)}-ary channel", p.span)
            delta = EMPTY_DELTA
            for obj, want in zip(objects, sty.payload):
                oty, odelta = type_value(gamma, obj, p.span)
                if oty != want:
                    raise TypingError("TypeMismatch",
                                      f"object {render_term(obj)} has type {oty}, "
                                      f"channel carries {want}", p.span)
                delta = delta.uplus(odelta)
            delta = delta.uplus(_delta_of(pair for want in sty.payload
                                          for pair in _sent_perms(want, sty.group)))
            body = type_process(gamma, cont, id_direction)
            return Typing(body.lam, body.zrecs, body.delta.uplus(delta))

        case PInp(subject, patterns, cont):
            sty = _subject_chan(gamma, subject, p.span)
            if len(patterns) != len(sty.payload):
                raise TypingError("ArityMismatch",
                                  f"input binds {len(patterns)} patterns on a "
                                  f"{len(sty.payload)}-ary channel", p.span)
            g2 = gamma
            annots = p.annots or tuple(None for _ in patterns)
            for k, want, an in zip(patterns, sty.payload, annots):
                g2 = _bind_pattern(g2, k, want, an, p.span)
            delta = _delta_of(pair for k, want in zip(patterns, sty.payload)
                              for pair in _received_perms(k, want))
            body = type_process(g2, cont, id_direction)
            return Typing(body.lam, body.zrecs, body.delta.uplus(delta))

        case Block():
            return _type_block(gamma, p, id_direction)

        case PRepl(body):
            inner = type_process(gamma, body, id_direction)
            if inner.lam:
                r = sorted(inner.lam)[0]
                raise TypingError("ReplicatedFreeStore",
                                  f"store reference {r} is free under replication", p.span)
            agg = _delta_of(_aggregated_perms(*(t for _, t in inner.zrecs)))
            return Typing(frozenset(), inner.zrecs, inner.delta.star().uplus(agg))

        case PIf(op, lhs, rhs, then, els):
            mdelta = type_match(gamma, lhs, rhs, op, id_direction, p.span)
            tt = type_process(gamma, then, id_direction)
            et = type_process(gamma, els, id_direction)
            lam = _merge_lam(tt.lam, et.lam, p.span)
            return Typing(lam, tt.zrecs + et.zrecs,
                          mdelta.uplus(tt.delta).uplus(et.delta))

        case Group(group, body):
            inner = type_process(gamma, body, id_direction)
            return Typing(inner.lam, (), EMPTY_DELTA, inner.theta.prefixed(group))

        case SBare(proc):
            pt = type_process(gamma, proc, id_direction)
            theta = Theta(ThetaEntry(t, (), pt.delta.entries[t])
                          for t in sorted(pt.delta.entries))
            return Typing(pt.lam, (), EMPTY_DELTA, theta)

    raise TypingError("TypeMismatch", f"not a process or system: {p!r}")


def _type_block(gamma: Gamma, p: Block, id_direction: str,
                types: Optional[dict] = None) -> Typing:
    """The block rule. `types` are the binder types of the scope block
    that `p` belongs to, as `_bind_block` takes and gives them."""
    g, missing, types = _bind_block(gamma, p, types)
    if missing is not None:
        raise TypingError("UnannotatedRestriction",
                          f"cannot determine the type of (new {missing})", p.span)
    typings = [_type_block(g, c, id_direction, types) if type(c) is Block
               else type_process(g, c, id_direction) for c in p.comps]
    # merged from the right, so the first store clash reported is the one
    # between the last components
    rt = typings[-1]
    for lt in reversed(typings[:-1]):
        lam = _merge_lam(lt.lam, rt.lam, p.span)
        agg = _delta_of(pair for ik1, t1 in lt.zrecs for ik2, t2 in rt.zrecs
                        if ik1 == ik2 or ik1[0] == "var" or ik2[0] == "var"
                        for pair in _aggregated_perms(t1, t2))
        rt = Typing(lam, lt.zrecs + rt.zrecs, lt.delta.uplus(rt.delta).uplus(agg),
                    lt.theta.concat(rt.theta))
    return Typing(rt.lam.difference(n for n, _ in p.binders), rt.zrecs, rt.delta, rt.theta)


# --- system typing ------------------------------------------------------------------

def type_system(gamma: Gamma, s: System, id_direction: str = "anon") -> Typing:
    """Type a closed system: every interface entry must sit under a group.

    The outcome, the typing or its `TypingError`, is kept on the system
    node with the environment object and direction it was made under. A
    call with that same environment object (an environment is immutable)
    and direction returns the typing, or raises an equal error, without a
    walk; any other call types the system and replaces what is kept. The
    error kept is a copy that is never raised, since a raised one keeps a
    traceback whose frames hold the system."""
    kept = s._typing
    if kept is not None and kept[0] is gamma and kept[1] == id_direction:
        out = kept[2]
        if isinstance(out, TypingError):
            raise TypingError(out.code, out.message, out.span)
        return out
    try:
        out = type_closed(gamma, s, id_direction)
    except TypingError as e:
        _setattr(s, "_typing", (gamma, id_direction, TypingError(e.code, e.message, e.span)))
        raise
    _setattr(s, "_typing", (gamma, id_direction, out))
    return out


def type_closed(gamma: Gamma, s: System, id_direction: str) -> Typing:
    """The typing of a closed system, as `type_system` gives it, made
    afresh and kept nowhere."""
    out = type_process(gamma, s, id_direction)
    for e in out.theta.entries:
        if not e.path:
            raise TypingError("UnclosedBareProcess",
                              f"component exercising {e.ptype} permissions is "
                              "not enclosed by any group", getattr(s, "span", None))
    return out


# --- the capability order -----------------------------------------------------------

def permset_leq(a: PermSet, b: PermSet) -> bool:
    return all(covers(b, p) for p in a)


def _delta_leq(a: Delta, b: Delta) -> bool:
    return all(t in b.entries and permset_leq(ps, b.entries[t])
               for t, ps in a.entries.items())


def _flat_leq(a: FlatHierarchy, b: FlatHierarchy) -> bool:
    return a.path == b.path and permset_leq(a.perms, b.perms)


def _theta_leq(a: Theta, b: Theta) -> bool:
    """Every entry on the left must be covered by a distinct matching entry
    on the right (same type and path, dominated permissions)."""
    rights = list(b.entries)
    assignment: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        e = a.entries[i]
        for j, r in enumerate(rights):
            if j in seen:
                continue
            if r.ptype == e.ptype and r.path == e.path and permset_leq(e.perms, r.perms):
                seen.add(j)
                holder = next((k for k, v in assignment.items() if v == j), None)
                if holder is None or augment(holder, seen):
                    assignment[i] = j
                    return True
        return False

    return all(augment(i, set()) for i in range(len(a.entries)))


def interface_leq(a, b) -> bool:
    if isinstance(a, PermSet) and isinstance(b, PermSet):
        return permset_leq(a, b)
    if isinstance(a, Delta) and isinstance(b, Delta):
        return _delta_leq(a, b)
    if isinstance(a, FlatHierarchy) and isinstance(b, FlatHierarchy):
        return _flat_leq(a, b)
    if isinstance(a, Theta) and isinstance(b, Theta):
        return _theta_leq(a, b)
    raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
