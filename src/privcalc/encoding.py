"""Translation of store processes and reference I/O into core pi with
selection and branching, plus a bounded operational-correspondence check.

Select and branch are represented over the kernel syntax with the standard
labels-as-constants idiom: `s <| lbl. P` is an output of the label constant
and `s |> {lbl1: P1, lbl2: P2}` is an input followed by a label dispatch.
Label synchronization is then ordinary channel communication, so the kernel
normalizer and the transition engine apply unchanged to core terms.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .kernel import (
    Block, DVar, IVar, Known, NIL, PAnon, PIf, PInp, PNil, POut, PPair, PRepl,
    PStore, PVar, PrivateData, Process, Record, TConst, TDual, TName, TPriv,
    TVar, Term, children, field, free_atoms, fresh_name, normalize, replace,
    with_children, _alpha_key, _block, _normalize1, _setattr,
)
from .syntax import _is_par, _render_placeholder, render_process, render_term
from .semantics import _eval_cond, reference_names, search, tau_successors

__all__ = [
    "EncodingError", "BRANCH_LABELS", "select", "branch",
    "encode", "core_canonical", "render_core",
    "CorrespondenceReport", "check_correspondence",
]

BRANCH_LABELS = ("rd", "wr", "ok", "fail")


class EncodingError(Exception):
    pass


def select(subject: Term, label: str, cont: Process) -> Process:
    if label not in BRANCH_LABELS:
        raise EncodingError(f"unknown branch label {label}")
    return POut(subject, (TConst(label),), cont)


def branch(subject: Term, arms: dict[str, Process], dispatch_var: str) -> Process:
    """An input followed by a label dispatch; unknown labels dead-end."""
    body: Process = NIL
    for label, cont in reversed(list(arms.items())):
        if label not in BRANCH_LABELS:
            raise EncodingError(f"unknown branch label {label}")
        body = PIf("=", TVar(dispatch_var), TConst(label), cont, body)
    return PInp(subject, (PVar(dispatch_var),), body)


class _Fresh:
    def __init__(self, avoid: Iterable[str]):
        self.avoid = set(avoid) | set(BRANCH_LABELS) | {"unit"}

    def __call__(self, base: str) -> str:
        n = fresh_name(base, self.avoid)
        self.avoid.add(n)
        return n


def encode(p: Process, refs: Optional[frozenset[str]] = None) -> Process:
    """A store becomes a state cell with a replicated server offering
    rd/wr; reference reads open a session and select rd; reference writes
    run a retry loop selecting wr. Everything else is homomorphic."""
    if refs is None:
        refs = reference_names(p)
    fresh = _Fresh(_all_atoms(p))

    def enc(nd: Process) -> Process:
        match nd:
            case PStore(ref, datum):
                if not datum.is_constant:
                    raise EncodingError(
                        f"store {ref} holds a non-constant datum; not encodable")
                return _encode_store(ref, datum, fresh)
            case PInp(TDual()) | POut(TDual()):
                raise EncodingError("dual endpoints are not encodable user code")
            case PInp(TName(n) as subject, patterns, cont) if n in refs:
                if len(patterns) != 1 or isinstance(patterns[0], PVar):
                    raise EncodingError(
                        f"reference {render_term(subject)} must be read with a "
                        "private-data pattern")
                return _encode_read(subject, patterns[0], enc(cont), fresh)
            case POut(TName(n) as subject, objects, cont) if n in refs:
                if len(objects) != 1 or not isinstance(objects[0], TPriv):
                    raise EncodingError(
                        f"reference {render_term(subject)} must be written with "
                        "private data")
                return _encode_write(subject, objects[0], enc(cont), fresh)
            case PNil() | PInp() | POut() | Block() | PRepl() | PIf():
                return with_children(nd, tuple(map(enc, children(nd))))
        raise EncodingError(f"cannot encode {nd!r}")

    return enc(p)


# a run of word characters and primes, but not the '_' of a hidden identity:
# every printed name, variable, identity and constant that a fresh name could
# equal is a whole one
_WORD_RUN = re.compile(r"[^\W_][\w']*|_[\w']+")


def _all_atoms(p: Process) -> set[str]:
    """Every token in the term, bound or free, to keep fresh names clear:
    the runs of word characters in what the printer writes for it. A fresh
    name (`base` or `base_i`) is one such run, and the printer writes each
    token it could equal between characters that end a run, so avoiding
    the runs is enough; keywords and the type names of annotations come
    along, and a token the lexer would not read back only adds runs."""
    return set(_WORD_RUN.findall(render_process(p)))


def _encode_store(ref: str, datum: PrivateData, fresh: _Fresh) -> Process:
    # session first, then the cell: an idle store makes no internal step,
    # which the bounded correspondence check needs
    cell = fresh("cell")
    x, y = fresh("sx"), fresh("sy")
    l = fresh("l")
    w, z = fresh("sw"), fresh("sz")
    ident = datum.identity
    assert isinstance(ident, Known)
    serving = PRepl(PInp(TName(ref), (PVar(l),), PInp(TName(cell), (PPair(x, y),), branch(
        TVar(l),
        {
            "rd": POut(TVar(l), (TPriv(PrivateData(IVar(x), DVar(y))),),
                       POut(TName(cell), (TPriv(PrivateData(IVar(x), DVar(y))),), NIL)),
            "wr": PInp(TVar(l), (PPair(w, z),), PIf(
                "=", TVar(w), TConst(ident.ident),
                select(TVar(l), "ok",
                       POut(TName(cell), (TPriv(PrivateData(IVar(w), DVar(z))),), NIL)),
                select(TVar(l), "fail",
                       POut(TName(cell), (TPriv(PrivateData(IVar(x), DVar(y))),), NIL)))),
        },
        fresh("lbl")))))
    init = POut(TName(cell), (TPriv(datum),), NIL)
    return Block(((cell, None),), (init, serving))


def _encode_read(subject: Term, pattern, cont: Process, fresh: _Fresh) -> Process:
    a = fresh("a")
    if isinstance(pattern, PAnon):
        # anonymised read: bind a fresh identity and erase it by never using it
        pattern = PPair(fresh("hid"), pattern.data_var)
    return Block(((a, None),), (POut(subject, (TName(a),),
                                     select(TName(a), "rd",
                                            PInp(TName(a), (pattern,), cont))),))


def _encode_write(subject: Term, obj: TPriv, cont: Process, fresh: _Fresh) -> Process:
    a, b, e = fresh("a"), fresh("b"), fresh("e")
    x, y = fresh("wx"), fresh("wy")
    z = fresh("wz")
    loop = PRepl(PInp(TName(b), (PPair(x, y),), Block(((e, None),), (POut(
        subject, (TName(e),),
        select(TName(e), "wr",
               POut(TName(e), (TPriv(PrivateData(IVar(x), DVar(y))),),
                    branch(TName(e),
                           {"ok": POut(TName(a), (TConst("unit"),), NIL),
                            "fail": POut(TName(b),
                                         (TPriv(PrivateData(IVar(x), DVar(y))),), NIL)},
                           fresh("lbl"))))),))))
    seed = POut(TName(b), (obj,), NIL)
    waiter = PInp(TName(a), (PVar(z),), cont)
    return Block(((a, None), (b, None)), (seed, loop, waiter))


# --- core execution and canonical forms ------------------------------------------------

def _eval_ifs(p: Process) -> Process:
    """Resolve every conditional whose test is decided. With nothing to
    resolve, the argument itself is returned, at once for a core form's
    component."""
    if p._core:
        return p
    if isinstance(p, PIf):
        v = _eval_cond(p.op, p.lhs, p.rhs)
        if v is True:
            return _eval_ifs(p.then)
        if v is False:
            return _eval_ifs(p.els)
    return with_children(p, tuple(map(_eval_ifs, children(p))))


def _gc_inert(p: Process) -> Process:
    """Remove replicated inputs guarding a restricted name whose only other
    occurrences sit inside those same guarded bodies: nothing can ever send
    on the name first, so the components are inert. Every binder of a
    block is checked, again after each removal. With nothing to remove, the
    argument itself is returned, at once for a core form's component."""
    if p._core:
        return p
    match p:
        case Block(bs, cs) if bs:
            comps = tuple(map(_gc_inert, cs))
            live = [(c, free_atoms(c)) for c in comps]
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
            return replace(p, binders=bs, comps=comps) if bs else _block((), comps)
    return with_children(p, tuple(map(_gc_inert, children(p))))


def _core_form(p: Process) -> Process:
    """The core form of an encoded state: resolved conditionals evaluated,
    structural normalization without the canonical renaming (or the normal
    form kept on the node), then inert service loops collected and, if any
    were, normalization again.

    `_eval_ifs` and `_gc_inert` read nothing around a node. When
    `_gc_inert` gives the form back as itself, both give back each of its
    components as itself (normalizing decides no conditional), so the
    components are marked (`_core`) and both return them at once when a
    step leaves them in place: only the components a step made, and the
    top block's binders, are walked. A form that a collection changed is
    left unmarked."""
    cur = _eval_ifs(p)
    cur = cur._norm or _normalize1(cur, frozenset(), frozenset())
    gc = _gc_inert(cur)
    if gc is not cur:
        return _normalize1(gc, frozenset(), frozenset())
    for c in cur.comps if isinstance(cur, Block) else (cur,):
        _setattr(c, "_core", True)
    return cur


def core_canonical(p: Process) -> Process:
    """Canonical form for state comparison: the normal form of the core
    form, so two encoded states have equal canonical forms exactly when
    their core forms have one `_alpha_key`."""
    return normalize(_core_form(p))


# --- rendering -------------------------------------------------------------------------

def _match_select(p: Process):
    if (isinstance(p, POut) and len(p.objects) == 1
            and isinstance(p.objects[0], TConst)
            and p.objects[0].token in BRANCH_LABELS):
        return p.subject, p.objects[0].token, p.cont
    return None


def _match_branch(p: Process):
    if not (isinstance(p, PInp) and len(p.patterns) == 1
            and isinstance(p.patterns[0], PVar)):
        return None
    var = p.patterns[0].name
    arms: list[tuple[str, Process]] = []
    body = p.cont
    while (isinstance(body, PIf) and body.op == "="
           and isinstance(body.lhs, TVar) and body.lhs.name == var
           and isinstance(body.rhs, TConst) and body.rhs.token in BRANCH_LABELS):
        arms.append((body.rhs.token, body.then))
        body = body.els
    if arms and isinstance(body, PNil):
        return p.subject, arms
    return None


def render_core(p: Process) -> str:
    sel = _match_select(p)
    if sel is not None:
        s, lbl, cont = sel
        c = render_core(cont)
        return f"{render_term(s)} <| {lbl}. {c}"
    bra = _match_branch(p)
    if bra is not None:
        s, arms = bra
        inner = ", ".join(f"{lbl}: {render_core(cont)}" for lbl, cont in arms)
        return f"{render_term(s)} |> {{ {inner} }}"
    match p:
        case POut(s, objs, cont):
            return f"{render_term(s)}!<{', '.join(render_term(o) for o in objs)}>. " \
                   + _wrap(cont)
        case PInp(s, pats, cont):
            ps = ", ".join(_render_placeholder(k, None) for k in pats)
            return f"{render_term(s)}?({ps}). " + _wrap(cont)
        case Block(bs, cs) if bs:
            return "".join(f"(new {n}) " for n, _ in bs) + _wrap(_block((), cs))
        case Block(_, cs):
            return " | ".join(map(render_core, cs))
        case PRepl(body):
            return "* " + _wrap(body)
        case PIf(op, lhs, rhs, t, e):
            return (f"if {render_term(lhs)} {op} {render_term(rhs)} "
                    f"then ({render_core(t)}) else ({render_core(e)})")
        case PNil():
            return "0"
    return render_process(p)


def _wrap(p: Process) -> str:
    txt = render_core(p)
    if _is_par(p):
        return f"({txt})"
    return txt


# --- operational correspondence ---------------------------------------------------------

class CorrespondenceReport(Record, frozen=False):
    source_steps: int = 0
    encoded_steps: int = 0
    sound: list[str] = field(default_factory=list)        # matched source steps
    complete: list[str] = field(default_factory=list)     # matched encoded steps
    failures: list[str] = field(default_factory=list)
    bound_exhausted: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.bound_exhausted

    def render(self) -> str:
        status = "ok" if self.ok else "PROBLEMS"
        lines = [f"correspondence: {status} "
                 f"({self.source_steps} source steps, {self.encoded_steps} encoded steps)"]
        lines += [f"  failure: {f}" for f in self.failures]
        lines += [f"  inconclusive: {f}" for f in self.bound_exhausted]
        return "\n".join(lines)


# An encoded state in the search: the `_alpha_key` of its core form, and
# the core form, which is expanded as it is.
State = tuple[str, Process]


def _state(q: Process) -> State:
    form = _core_form(q)
    return _alpha_key(form), form


def check_correspondence(p: Process, bound: int) -> CorrespondenceReport:
    """Soundness: every source step is matched by the encoding within the
    bound. Completeness: every first encoded step either reverts to the
    encoded source or completes to the encoding of some source successor.

    Encoded states are core forms, never canonically renamed, and are
    identified by their `_alpha_key`: two keys are equal exactly when the
    `core_canonical` forms are. Every search is a `semantics.search` that
    stops at its targets, and all of them share one successor map by key,
    so each encoded state is expanded at most once."""
    report = CorrespondenceReport()
    refs = reference_names(p)
    enc_root = encode(p, refs)
    # one source step per `_alpha_key` of its normal form, the first met,
    # as the encoded states are told apart
    steps: dict[str, Process] = {}
    for s in map(normalize, tau_successors(p)):
        steps.setdefault(_alpha_key(s), s)
    report.source_steps = len(steps)
    enc_targets = [_state(encode(s, refs))[0] for s in steps.values()]

    succs: dict[str, list[State]] = {}

    def successors(state: State) -> list[State]:
        out = succs.get(state[0])
        if out is None:
            out = succs[state[0]] = list(map(_state, tau_successors(state[1])))
        return out

    root = _state(enc_root)
    pending = set(enc_targets)

    def all_met(key: str) -> bool:
        pending.discard(key)
        return not pending

    met, _, exhausted = search(root, successors, bound, all_met)
    for key, s in zip(enc_targets, steps.values()):
        desc = render_process(s)
        if key in met:
            report.sound.append(desc)
        elif exhausted:
            report.bound_exhausted.append(f"soundness: {desc}")
        else:
            report.failures.append(f"soundness: encoding never reaches [{desc}]")

    # the first steps are the raw root's, in its order, which may differ
    # from the order of its core form's steps
    first: dict[str, State] = {}
    for st in map(_state, tau_successors(enc_root)):
        first.setdefault(st[0], st)
    report.encoded_steps = len(first)
    targets = [root[0]] + enc_targets
    for q in first.values():
        # a search that meets a target stops there, so the target is the
        # last key met; its first index names it
        met, _, exhausted = search(q, successors, bound, targets.__contains__)
        last = next(reversed(met))
        if last in targets:
            i = targets.index(last)
            report.complete.append("revert" if i == 0 else f"completes: {i - 1}")
        elif exhausted:
            report.bound_exhausted.append("completeness: encoded step")
        else:
            report.failures.append("completeness: encoded step reaches neither the "
                                   "source image nor any successor image")
    return report
