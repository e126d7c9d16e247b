"""Typing as it was before processes and systems shared one walk, kept as a
test oracle.

`type_process` walks process nodes and gives a process's free store
references, its stores by identity and its permission environment.
`type_system` walks system nodes and gives a system's free store
references and its interface; for a bare body it calls `type_process`.
Each has its own block rule. `_bind_block` hands each binder's inference a
block built of the later binders and the components, and the inference
scans that block as a node.
"""

from typing import Optional

from privcalc.kernel import (
    Block, Group, Hidden, PIf, PInp, PNil, POut, PRepl, PStore, PrivacyType, Process,
    SBare, System, TChan, TName, TVar, children, placeholder_vars,
)
from privcalc.syntax import Gamma, render_term
from privcalc.typesys import (
    EMPTY_DELTA, Delta, Theta, ThetaEntry, TypingError, _aggregated_perms, _bind_pattern,
    _delta_of, _identity_key, _merge_lam, _received_perms,
    _ref_target, _resolve_priv, _sent_perms, _stored_perms, _subject_chan, type_match,
    type_value,
)


def _infer_binder_type(gamma: Gamma, name: str, body) -> Optional[PrivacyType]:
    candidates: set[PrivacyType] = set()

    def scan(nd, bound: frozenset):
        binds = ()
        match nd:
            case POut(s, objs, _) if isinstance(s, (TName, TVar)) and s.name not in bound:
                sty = gamma.atom_type(s.name)
                if isinstance(sty, TChan) and len(sty.payload) == len(objs):
                    for o, ty in zip(objs, sty.payload):
                        if isinstance(o, (TName, TVar)) and o.name == name:
                            candidates.add(ty)
            case PInp(_, pats, _):
                binds = [v for k in pats for v in placeholder_vars(k)]
            case Block(bs, _):
                binds = [n for n, _ in bs]
        if name in binds:
            return  # shadowed below
        if binds:
            bound = bound.union(binds)
        for c in children(nd):
            scan(c, bound)

    scan(body, frozenset([name]))
    if len(candidates) == 1:
        return next(iter(candidates))
    return None


def _bind_block(gamma: Gamma, node: Block) -> tuple[Gamma, Optional[str]]:
    missing = None
    for k, (n, annot) in enumerate(node.binders):
        ty = annot or _infer_binder_type(gamma, n, Block(node.binders[k + 1:], node.comps))
        if ty is not None:
            gamma = gamma.bind_atom(n, ty)
        elif missing is None:
            missing = n
    return gamma, missing


def _unannotated(name: str, span) -> TypingError:
    return TypingError("UnannotatedRestriction",
                       f"cannot determine the type of (new {name})", span)


def type_process(gamma: Gamma, p: Process, id_direction: str = "anon"
                 ) -> tuple[frozenset, tuple, Delta]:
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
            g, missing = _bind_block(gamma, p)
            if missing is not None:
                raise _unannotated(missing, p.span)
            typings = [type_process(g, c, id_direction) for c in cs]
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


def _type_system(gamma: Gamma, s: System, id_direction: str) -> tuple[frozenset, Theta]:
    match s:
        case Group(group, body):
            lam, theta = _type_system(gamma, body, id_direction)
            return lam, theta.prefixed(group)

        case Block(bs, cs):
            g, missing = _bind_block(gamma, s)
            if missing is not None:
                raise _unannotated(missing, s.span)
            typings = [_type_system(g, c, id_direction) for c in cs]
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
