"""Seeded generators shared by the property and acceptance tests: small
well-typed systems with guaranteed interactions, random policies with
satisfying interfaces, and store programs for the encoding checks."""

from __future__ import annotations

import random

from privcalc.kernel import (
    Block, DConst, Group, HIDDEN, Known, NIL, PAnon, PIf, PInp, PNil, POut,
    PPair, PRepl, PStore, PVar, PrivateData, Process, SBare, System, TChan,
    TConst, TName, TPriv, TPrivate, TPurpose, TVar,
)
from privcalc.policy import (
    AGGREGATE, FIN, Hierarchy, Lambda, OMEGA, Perm, PermSet, Policy, READ,
    READID, REFERENCE, STORE, UPDATE, check_wellformed, disseminate,
    identify, nondisclose, usage,
)
from privcalc.syntax import Gamma
from privcalc.typesys import Theta, ThetaEntry


# --- node builders ----------------------------------------------------------------

def par(*comps):
    """The parallel composition of the components, in either family, shaped
    as the parser reads its rendering: a trailing composition joins the
    block, and a lone component stands for itself."""
    last = comps[-1]
    if len(comps) > 1 and isinstance(last, Block) and not last.binders:
        comps = comps[:-1] + last.comps
    return Block((), comps) if len(comps) > 1 else comps[0]


def new(name, annot, body):
    """One restriction over a body, in either family, as the parser builds
    it."""
    return Block(((name, annot),), (body,))


# --- a fixed vocabulary for random well-typed systems ---------------------------

T0 = TPrivate("t0", "g0")
T1 = TPrivate("t1", "g0")
P0 = TPurpose("p0", "g0")

REF_A = TChan("G1", (T0,))
REF_B = TChan("G1", (T1,))
CH_REF = TChan("G1", (REF_A,))
CH_P = TChan("G1", (P0,))


def base_gamma() -> Gamma:
    g = Gamma()
    g = g.bind_atom("rA", REF_A)
    g = g.bind_atom("rB", REF_B)
    g = g.bind_atom("chan", CH_REF)
    g = g.bind_atom("pch", CH_P)
    g = g.bind_atom("k0", P0)
    g = g.bind_priv(Known("id0"), DConst("c0"), T0)
    g = g.bind_priv(HIDDEN, DConst("c0"), T0)
    g = g.bind_priv(Known("id0"), DConst("c1"), T0)
    g = g.bind_priv(HIDDEN, DConst("c1"), T0)
    g = g.bind_priv(Known("id1"), DConst("d0"), T1)
    g = g.bind_priv(HIDDEN, DConst("d0"), T1)
    return g


def _priv(ident, tok):
    return TPriv(PrivateData(ident, DConst(tok)))


def random_system(rng: random.Random) -> System:
    """A closed two-group system with at least one internal interaction,
    well typed under base_gamma by construction."""
    pieces_left: list[Process] = []
    pieces_right: list[Process] = []

    kind = rng.randrange(5)
    if kind == 0:
        # store and reader on rA
        pieces_left.append(PStore("rA", PrivateData(Known("id0"), DConst("c0"))))
        if rng.random() < 0.5:
            reader = PInp(TName("rA"), (PPair("x", "y"),), NIL)
        else:
            reader = PInp(TName("rA"), (PAnon("y"),), NIL)
        pieces_right.append(reader)
    elif kind == 1:
        # store and writer (anonymised or identified)
        pieces_left.append(PStore("rA", PrivateData(Known("id0"), DConst("c0"))))
        obj = _priv(HIDDEN, "c1") if rng.random() < 0.5 else _priv(Known("id0"), "c1")
        pieces_right.append(POut(TName("rA"), (obj,), NIL))
    elif kind == 2:
        # reference handover then a read
        pieces_left.append(POut(TName("chan"), (TName("rA"),), NIL))
        pieces_right.append(PInp(TName("chan"), (PVar("w"),),
                                 PInp(TVar("w"), (PPair("x", "y"),), NIL)))
        pieces_right.append(PStore("rA", PrivateData(Known("id0"), DConst("c0"))))
    elif kind == 3:
        # purpose constant exchange and a use match
        pieces_left.append(POut(TName("pch"), (TConst("k0"),), NIL))
        pieces_right.append(PInp(TName("pch"), (PVar("v"),), NIL))
        pieces_right.append(PStore("rA", PrivateData(Known("id0"), DConst("c0"))))
        pieces_right.append(PInp(TName("rA"), (PPair("x", "y"),),
                                 PIf("=", TVar("y"), TConst("k0"), NIL, NIL)))
    else:
        # two stores for the same individual plus a reader
        pieces_left.append(PStore("rA", PrivateData(Known("id0"), DConst("c0"))))
        pieces_left.append(PStore("rB", PrivateData(Known("id1"), DConst("d0"))))
        pieces_right.append(PInp(TName("rB"), (PAnon("y"),), NIL))

    if rng.random() < 0.4:
        pieces_right.append(PRepl(POut(TName("pch"), (TConst("k0"),), NIL)))
    if rng.random() < 0.3:
        pieces_left.append(PNil())

    left: System = Group("G2", SBare(par(*pieces_left)))
    right: System = Group("G3", SBare(par(*pieces_right)))
    body: System = par(left, right)
    if rng.random() < 0.5:
        body = Group("G1", body)
    return body


# --- random policies and satisfying interfaces ----------------------------------

GROUPS = ("g0", "g1", "g2", "g3", "g4")
PTYPES = ("t0", "t1", "t2")
PURPOSES = ("p0", "p1")


def _random_perms(rng: random.Random) -> PermSet:
    pool = [READ, UPDATE, REFERENCE, STORE, READID, AGGREGATE,
            usage(rng.choice(PURPOSES)), identify(rng.choice(PTYPES)),
            disseminate(rng.choice(GROUPS), rng.choice([FIN(1), FIN(2), FIN(5), OMEGA]))]
    n = rng.randrange(0, 5)
    return PermSet(rng.sample(pool, n))


def random_policy(rng: random.Random) -> Policy:
    used: list[str] = []

    def hier(depth: int, avoid: set[str]) -> Hierarchy:
        group = rng.choice([g for g in GROUPS if g not in avoid])
        kids = ()
        if depth > 0 and rng.random() < 0.7:
            k = rng.randrange(1, 3)
            kids_list = []
            taken = set(avoid) | {group}
            for _ in range(k):
                child = hier(depth - 1, taken)
                taken |= {child.group}
                kids_list.append(child)
            kids = tuple(kids_list)
        return Hierarchy(group, _random_perms(rng), kids)

    n = rng.randrange(1, 3)
    bindings = []
    for t in rng.sample(PTYPES, n):
        bindings.append((t, hier(2, set())))
    p = Policy(tuple(bindings))
    # repair nondisclosure conflicts by dropping the offending grants
    for _ in range(4):
        bad = check_wellformed(p)
        if not bad:
            return p

        def strip(h: Hierarchy) -> Hierarchy:
            perms = PermSet([x for x in h.perms if x.kind != "nondisclose"])
            return Hierarchy(h.group, perms, tuple(strip(c) for c in h.children))

        p = Policy(tuple((t, strip(h)) for t, h in p.bindings))
    return p


def _weaken_perms(rng: random.Random, ps: PermSet) -> PermSet:
    out = []
    for perm in ps.sorted():
        if rng.random() < 0.3:
            continue
        if perm.kind == "disseminate" and not perm.lam.unlimited and rng.random() < 0.5:
            out.append(disseminate(perm.group, FIN(max(1, perm.lam.count - 1))))
        else:
            out.append(perm)
    return PermSet(out)


def satisfying_theta(rng: random.Random, p: Policy) -> Theta:
    entries = []
    for _ in range(rng.randrange(1, 4)):
        t, h = rng.choice(list(p.bindings))
        path = [h.group]
        acc = h.perms
        node = h
        while node.children and rng.random() < 0.7:
            node = rng.choice(node.children)
            path.append(node.group)
            from privcalc.policy import perm_union
            acc = perm_union(acc, node.perms)
        grantable = PermSet([x for x in acc if x.kind != "nondisclose"])
        entries.append(ThetaEntry(t, tuple(path), _weaken_perms(rng, grantable)))
    return Theta(entries)


def weaken_theta(rng: random.Random, theta: Theta) -> Theta:
    entries = []
    for e in theta.entries:
        if rng.random() < 0.25 and len(theta.entries) > 1:
            continue
        entries.append(ThetaEntry(e.ptype, e.path, _weaken_perms(rng, e.perms)))
    if not entries and theta.entries:
        e = theta.entries[0]
        entries = [ThetaEntry(e.ptype, e.path, _weaken_perms(rng, e.perms))]
    return Theta(entries)


# --- store programs for encoding checks ------------------------------------------

def store_programs() -> list[Process]:
    """Deterministic store/client combinations: up to two stores and four
    clients, known-identity and anonymous readers, and writers."""
    sA = PStore("rA", PrivateData(Known("id0"), DConst("c0")))
    sB = PStore("rB", PrivateData(Known("id1"), DConst("d0")))
    readerA = PInp(TName("rA"), (PPair("x", "y"),), NIL)
    readerB = PInp(TName("rB"), (PPair("u", "v"),), NIL)
    writer_ok = POut(TName("rA"), (_priv(Known("id0"), "c1"),), NIL)
    writer_bad = POut(TName("rA"), (_priv(Known("id9"), "c1"),), NIL)
    seq_read = PInp(TName("rA"), (PPair("x", "y"),),
                    PInp(TName("rA"), (PPair("x2", "y2"),), NIL))
    anon_readerA = PInp(TName("rA"), (PAnon("y"),), NIL)

    programs = [
        par(sA, readerA),
        par(sA, writer_ok),
        par(sA, writer_bad),
        par(sA, readerA, readerA),
        par(sA, readerA, writer_ok),
        par(sA, writer_ok, writer_bad),
        par(sA, seq_read),
        par(sA, sB, readerA),
        par(sA, sB, readerA, readerB),
        par(sA, sB, writer_ok, readerB),
        par(sA, sB, readerB, writer_bad),
        par(sA, readerA, readerA, writer_ok),
        par(sA, sB, readerA, readerB, writer_ok),
        par(sA, writer_ok, writer_ok),
        par(sA, sB, readerB),
        par(sB, readerB),
        par(sB, POut(TName("rB"), (_priv(Known("id1"), "d1"),), NIL)),
        par(sA, PInp(TName("rA"), (PPair("x", "y"),),
                     POut(TName("rA"), (_priv(Known("id0"), "c1"),), NIL))),
        par(sA, sB, seq_read, readerB),
        par(sA, readerA, writer_bad),
        par(sA, sB, writer_ok, writer_bad, readerB),
        par(sA, anon_readerA, writer_ok),
        par(sA, sB, anon_readerA, readerB),
        par(sA, writer_ok, writer_ok, readerA),
        par(sA, writer_ok, writer_bad, readerA),
        par(sA, sB, readerA, writer_ok, readerB, readerB),
    ]
    return programs
