"""Typing as it was before processes and systems shared one walk, kept as a
test oracle.

`type_process` walks process nodes and gives a process's free store
references, its stores by identity and its permission environment.
`type_system` walks system nodes and gives a system's free store
references and its interface; for a bare body it calls `type_process`.
Each has its own block rule. The restrictions of a scope block (a block
and the blocks nested in it as components) are typed here on their own
terms, by `_scope_types`: in rounds, each round rescanning the scope of
every binder not yet typed, and reading only the types of the rounds
before it. Its nested blocks are handed the types.
"""

from typing import Optional

from privcalc.kernel import (
    Block, Group, Hidden, PIf, PInp, PNil, POut, PRepl, PStore, PrivacyType, Process,
    SBare, System, TChan, TName, TVar, children, placeholder_vars,
)
from privcalc.syntax import Gamma, render_term
from privcalc.typesys import (
    EMPTY_DELTA, Delta, Theta, ThetaEntry, TypingError, _aggregated_perms, _bind_pattern,
    _delta_of, _identity_key, _merge_lam, _received_perms, _ref_target, _resolve_priv,
    _sent_perms, _stored_perms, _subject_chan, type_match, type_value,
)


def _scope_binders(node: Block, seen: tuple = ()) -> list:
    """The binders of the scope block `node`, its own and those of the
    blocks nested in it as components: (block, position, name, annotation,
    the scope binders around it as (key, name), outermost first)."""
    out = []
    for k, (n, annot) in enumerate(node.binders):
        out.append((node, k, n, annot, seen))
        seen = seen + (((id(node), k), n),)
    for c in node.comps:
        if type(c) is Block:
            out += _scope_binders(c, seen)
    return out


def _candidates(gamma: Gamma, types: dict, node: Block, k: int, seen: tuple
                ) -> set[PrivacyType]:
    """The payload types at which an output in the scope of binder `k` of
    `node` sends it on a subject typed by Γ or by a binder of the scope
    block that `types` types. A name bound by an input or by a restriction
    under a prefix has no type to read; a binder of the same name shadows
    it below."""
    name = node.binders[k][0]
    g, bound = gamma, frozenset()
    for key, n in seen:
        g, bound = _enter(g, bound, n, types.get(key))
    candidates: set[PrivacyType] = set()

    def scan(nd, g: Gamma, bound: frozenset):
        binds = ()
        match nd:
            case POut(s, objs, _) if isinstance(s, (TName, TVar)) and s.name not in bound:
                sty = g.atom_type(s.name)
                if isinstance(sty, TChan) and len(sty.payload) == len(objs):
                    for o, ty in zip(objs, sty.payload):
                        if isinstance(o, (TName, TVar)) and o.name == name:
                            candidates.add(ty)
            case PInp(_, pats, _):
                binds = [v for p in pats for v in placeholder_vars(p)]
            case Block(bs, _):
                binds = [n for n, _ in bs]
        if name in binds:
            return  # shadowed below
        for c in children(nd):
            scan(c, g, bound.union(binds))

    def scope(blk: Block, start: int, g: Gamma, bound: frozenset):
        for j in range(start, len(blk.binders)):
            n = blk.binders[j][0]
            if n == name:
                return  # shadowed here
            g, bound = _enter(g, bound, n, types.get((id(blk), j)))
        for c in blk.comps:
            if type(c) is Block:
                scope(c, 0, g, bound)
            else:
                scan(c, g, bound)

    scope(node, k + 1, g, bound | {name})
    return candidates


def _enter(g: Gamma, bound: frozenset, name: str, ty: Optional[PrivacyType]
           ) -> tuple[Gamma, frozenset]:
    """Γ and the names without a type to read, under a scope binder: typed
    in Γ if it has a type, else bound."""
    if ty is None:
        return g, bound | {name}
    return g.bind_atom(name, ty), bound - {name}


def _scope_types(gamma: Gamma, node: Block) -> dict:
    """The types of the restrictions of the scope block `node`, keyed by
    their block's id and position: an annotated binder's annotation, and
    an unannotated one's only candidate, in the first round that has one.
    A round reads only the types of the rounds before it."""
    binders = _scope_binders(node)
    types = {(id(b), k): a for b, k, _, a, _ in binders if a is not None}
    while True:
        found = {}
        for b, k, _, _, seen in binders:
            if (id(b), k) not in types:
                candidates = _candidates(gamma, types, b, k, seen)
                if len(candidates) == 1:
                    found[id(b), k] = candidates.pop()
        if not found:
            return types
        types.update(found)


def _bind_block(gamma: Gamma, node: Block, types: dict) -> tuple[Gamma, Optional[str]]:
    missing = None
    for k, (n, _) in enumerate(node.binders):
        ty = types.get((id(node), k))
        if ty is not None:
            gamma = gamma.bind_atom(n, ty)
        elif missing is None:
            missing = n
    return gamma, missing


def _unannotated(name: str, span) -> TypingError:
    return TypingError("UnannotatedRestriction",
                       f"cannot determine the type of (new {name})", span)


def _nested(c, types: dict) -> Optional[dict]:
    """The binder types a component is handed: its scope block's, if it is
    a block nested in one."""
    return types if type(c) is Block else None


def type_process(gamma: Gamma, p: Process, id_direction: str = "anon",
                 types: Optional[dict] = None) -> tuple[frozenset, tuple, Delta]:
    match p:
        case PNil():
            return frozenset(), (), EMPTY_DELTA

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
            return (frozenset([ref]), ((_identity_key(datum.identity), want.ptype),),
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
            lam, zrecs, body = type_process(gamma, cont, id_direction)
            return lam, zrecs, body.uplus(delta)

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
            lam, zrecs, body = type_process(g2, cont, id_direction)
            return lam, zrecs, body.uplus(delta)

        case Block(bs, cs):
            if types is None:
                types = _scope_types(gamma, p)
            g, missing = _bind_block(gamma, p, types)
            if missing is not None:
                raise _unannotated(missing, p.span)
            typings = [type_process(g, c, id_direction, _nested(c, types)) for c in cs]
            lam, zrecs, delta = typings[-1]
            for llam, lzrecs, ldelta in reversed(typings[:-1]):
                lam = _merge_lam(llam, lam, p.span)
                agg = _delta_of(pair for ik1, t1 in lzrecs for ik2, t2 in zrecs
                                if ik1 == ik2 or ik1[0] == "var" or ik2[0] == "var"
                                for pair in _aggregated_perms(t1, t2))
                zrecs, delta = lzrecs + zrecs, ldelta.uplus(delta).uplus(agg)
            return lam.difference(n for n, _ in bs), zrecs, delta

        case PRepl(body):
            lam, zrecs, delta = type_process(gamma, body, id_direction)
            if lam:
                raise TypingError("ReplicatedFreeStore",
                                  f"store reference {sorted(lam)[0]} is free under "
                                  "replication", p.span)
            agg = _delta_of(_aggregated_perms(*(t for _, t in zrecs)))
            return frozenset(), zrecs, delta.star().uplus(agg)

        case PIf(op, lhs, rhs, then, els):
            mdelta = type_match(gamma, lhs, rhs, op, id_direction, p.span)
            tlam, tzrecs, tdelta = type_process(gamma, then, id_direction)
            elam, ezrecs, edelta = type_process(gamma, els, id_direction)
            return (_merge_lam(tlam, elam, p.span), tzrecs + ezrecs,
                    mdelta.uplus(tdelta).uplus(edelta))

    raise TypingError("TypeMismatch", f"not a process: {p!r}")


def _type_system(gamma: Gamma, s: System, id_direction: str,
                 types: Optional[dict] = None) -> tuple[frozenset, Theta]:
    match s:
        case Group(group, body):
            lam, theta = _type_system(gamma, body, id_direction)
            return lam, theta.prefixed(group)

        case Block(bs, cs):
            if types is None:
                types = _scope_types(gamma, s)
            g, missing = _bind_block(gamma, s, types)
            if missing is not None:
                raise _unannotated(missing, s.span)
            typings = [_type_system(g, c, id_direction, _nested(c, types)) for c in cs]
            lam, theta = typings[-1]
            for llam, ltheta in reversed(typings[:-1]):
                lam = _merge_lam(llam, lam, s.span)
                theta = ltheta.concat(theta)
            return lam.difference(n for n, _ in bs), theta

        case SBare(proc):
            lam, _, delta = type_process(gamma, proc, id_direction)
            return lam, Theta(ThetaEntry(t, (), delta.entries[t])
                              for t in sorted(delta.entries))

    raise TypingError("TypeMismatch", f"not a system: {s!r}")


def type_system(gamma: Gamma, s: System, id_direction: str = "anon"
                ) -> tuple[frozenset, Theta]:
    """The typing of a closed system: every interface entry must sit under
    a group."""
    lam, theta = _type_system(gamma, s, id_direction)
    for e in theta.entries:
        if not e.path:
            raise TypingError("UnclosedBareProcess",
                              f"component exercising {e.ptype} permissions is "
                              "not enclosed by any group", getattr(s, "span", None))
    return lam, theta
