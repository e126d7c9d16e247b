"""Reference engine for internal steps: `visible_outs`, `feed` and the
all-pairs `tau_successors` as `semantics` had them before it indexed
components by subject. It tries every output of every component against
every other component, so it is slow on wide blocks but plainly complete;
tests compare the indexed engine's successor lists with its own, order
included. `collect_inps` is the input scan of `input_labels`, and
`fed_subjects` the subjects `feed` can consume on. The leaf
helpers (`_deliveries`, `_eval_cond`, ...) are shared with `semantics`,
which did not change them, and binders are renamed apart through the
kernel's `_apart`, as `semantics` does.

The input transitions with values from a universe (`InpLabel`,
`input_labels`) and the duality relation `dual` between an output and an
input label are here too: the engine pairs outputs with deliveries
directly, and tests check those pairs against `dual`."""

import itertools

from privcalc.kernel import (
    Block, Group, Hidden, IVar, Known, PIf, PInp, PNil, POut, PRepl, PStore,
    PrivateData, Record, SBare, TDual, TName, TPriv, Term,
    IncompatibleSubstitution, children, free_atoms, replace, substitute, _apart, _block,
)
from privcalc.semantics import (
    OutLabel, _anonymized, _closed_term, _deliveries, _eval_cond, reference_names,
)
from privcalc.syntax import render_term


def visible_outs(node):
    out = []
    match node:
        case PNil():
            pass
        case POut(subject, objects, cont):
            if isinstance(subject, (TName, TDual)) and all(_closed_term(o) for o in objects):
                out.append((OutLabel(subject.name, isinstance(subject, TDual), objects), cont))
        case PInp(_, _, _):
            pass
        case PStore(ref, datum):
            if datum.is_constant:
                out.append((OutLabel(ref, True, (TPriv(datum),)), node))
        case Block(bs, cs):
            names = {n for n, _ in bs}
            for k, c in enumerate(cs):
                for label, succ in visible_outs(c):
                    if label.subject in names:
                        continue
                    if label.extruded:
                        others = set().union(*map(free_atoms, cs[:k] + cs[k + 1:]))
                        ext, (succ, *objs) = _apart(label.extruded, (succ, *label.objects),
                                                    others)
                        label = replace(label, objects=tuple(objs), extruded=ext)
                    objs_atoms = set().union(*map(free_atoms, label.objects)) if bs else ()
                    leaving = tuple(b for b in bs if b[0] in objs_atoms)
                    if leaving:
                        label = OutLabel(label.subject, label.on_dual, label.objects,
                                         leaving + label.extruded)
                    out.append((label, _block(tuple(b for b in bs if b[0] not in objs_atoms),
                                              cs[:k] + (succ,) + cs[k + 1:])))
        case PRepl(body):
            for label, succ in visible_outs(body):
                out.append((label, Block((), (succ, node))))
        case PIf(op, lhs, rhs, then, els):
            v = _eval_cond(op, lhs, rhs)
            if v is True:
                out.extend(visible_outs(then))
            elif v is False:
                out.extend(visible_outs(els))
        case SBare(proc):
            out.extend((lb, SBare(sc)) for lb, sc in visible_outs(proc))
        case Group(g, body):
            out.extend((lb, Group(g, sc)) for lb, sc in visible_outs(body))
    return out


def feed(node, subject, to_dual, values):
    out = []
    match node:
        case PNil() | POut(_, _, _):
            pass
        case PInp(subj, patterns, cont):
            if (not to_dual and isinstance(subj, TName) and subj.name == subject
                    and len(patterns) == len(values)):
                try:
                    body = cont
                    for k, v in zip(patterns, values):
                        body = substitute(body, v, k)
                    out.append(body)
                except IncompatibleSubstitution:
                    pass
        case PStore(ref, datum):
            if to_dual and ref == subject and len(values) == 1:
                v = values[0]
                if isinstance(v, TPriv) and v.pdata.is_constant:
                    wid, wdat = v.pdata.identity, v.pdata.data
                    if isinstance(wid, Known):
                        if isinstance(datum.identity, IVar) or datum.identity == wid:
                            out.append(PStore(ref, PrivateData(wid, wdat)))
                    elif isinstance(wid, Hidden) and isinstance(datum.identity, Known):
                        out.append(PStore(ref, PrivateData(datum.identity, wdat)))
        case Block(bs, cs):
            if bs:
                if any(n == subject for n, _ in bs):
                    return out
                bs, cs = _apart(bs, cs, set().union(*map(free_atoms, values)))
            for k, c in enumerate(cs):
                for succ in feed(c, subject, to_dual, values):
                    out.append(Block(bs, cs[:k] + (succ,) + cs[k + 1:]))
        case PRepl(body):
            for succ in feed(body, subject, to_dual, values):
                out.append(Block((), (succ, node)))
        case PIf(op, lhs, rhs, then, els):
            v = _eval_cond(op, lhs, rhs)
            if v is True:
                out.extend(feed(then, subject, to_dual, values))
            elif v is False:
                out.extend(feed(els, subject, to_dual, values))
        case SBare(proc):
            out.extend(SBare(s) for s in feed(proc, subject, to_dual, values))
        case Group(g, body):
            out.extend(Group(g, s) for s in feed(body, subject, to_dual, values))
    return out


def _pair(node, i, outs, receivers, refs):
    out = []
    cs = node.comps
    for label, succ in outs:
        if label.extruded:
            others = set().union(*map(free_atoms, cs[:i] + cs[i + 1:]))
            ext, (succ, *objs) = _apart(label.extruded, (succ, *label.objects), others)
            label = replace(label, objects=tuple(objs), extruded=ext)
        for subject, to_dual, values in _deliveries(label, refs):
            for j in receivers:
                for osucc in feed(cs[j], subject, to_dual, values):
                    comps = list(cs)
                    comps[i], comps[j] = succ, osucc
                    out.append(Block(node.binders + label.extruded, tuple(comps)))
    return out


def tau_successors(node, refs=None):
    if refs is None:
        refs = reference_names(node)
    out = []
    match node:
        case PNil() | POut(_, _, _) | PInp(_, _, _) | PStore(_, _):
            pass
        case Block(bs, cs):
            for k, c in enumerate(cs):
                out.extend(Block(bs, cs[:k] + (s,) + cs[k + 1:])
                           for s in tau_successors(c, refs))
            outs = [visible_outs(c) for c in cs]
            for i in reversed(range(len(cs) - 1)):
                later = range(i + 1, len(cs))
                out.extend(_pair(node, i, outs[i], later, refs))
                for j in later:
                    out.extend(_pair(node, j, outs[j], (i,), refs))
        case PRepl(body):
            out.extend(Block((), (s, node)) for s in tau_successors(body, refs))
        case PIf(op, lhs, rhs, then, els):
            v = _eval_cond(op, lhs, rhs)
            if v is True:
                out.extend(tau_successors(then, refs))
            elif v is False:
                out.extend(tau_successors(els, refs))
        case SBare(proc):
            out.extend(SBare(s) for s in tau_successors(proc, refs))
        case Group(g, body):
            out.extend(Group(g, s) for s in tau_successors(body, refs))
    return out


def collect_inps(node):
    """The (subject, arity) of every input not under a prefix, as
    `input_labels` gathers them."""
    match node:
        case PInp(subj, patterns, _):
            return [(subj.name, len(patterns))] if isinstance(subj, TName) else []
        case PStore(ref, _):
            return [(ref, 1)]
        case POut():
            return []
    return [f for c in children(node) for f in collect_inps(c)]


def fed_subjects(node):
    """The subjects of the inputs and stores that `feed` above can consume
    on: as `collect_inps`, but only in the taken branch of a decided
    conditional, in neither branch of an undecided one, and not on a name
    a block around them binds."""
    match node:
        case PInp(subj, _, _):
            return {subj.name} if isinstance(subj, TName) else set()
        case PStore(ref, _):
            return {ref}
        case POut():
            return set()
        case PIf(op, lhs, rhs, then, els):
            v = _eval_cond(op, lhs, rhs)
            return set() if v is None else fed_subjects(then if v else els)
        case Block(bs, cs):
            return set().union(*map(fed_subjects, cs)) - {n for n, _ in bs}
    return set().union(*map(fed_subjects, children(node)))


class InpLabel(Record):
    subject: str
    on_dual: bool
    objects: tuple[Term, ...]

    def render(self) -> str:
        s = ("~" if self.on_dual else "") + self.subject
        return f"{s}?({', '.join(render_term(o) for o in self.objects)})"


def _component_dual(v_out: Term, v_in: Term, anonymize_out: bool) -> bool:
    if v_out == v_in:
        return True
    if anonymize_out:
        return _anonymized(v_out) == v_in
    return False


def dual(l1, l2) -> bool:
    """The symmetric duality relation over labels. Channel endpoints match
    on identical objects; reference endpoints additionally match a known
    datum on the store side against its anonymised form on the other."""
    if isinstance(l1, InpLabel) and isinstance(l2, OutLabel):
        l1, l2 = l2, l1
    if not (isinstance(l1, OutLabel) and isinstance(l2, InpLabel)):
        return False
    if l1.subject != l2.subject or len(l1.objects) != len(l2.objects):
        return False
    if not l1.on_dual and not l2.on_dual:
        return all(a == b for a, b in zip(l1.objects, l2.objects))
    if l1.on_dual and not l2.on_dual:
        # store output against a client input: the client may see it anonymised
        return all(_component_dual(a, b, True) for a, b in zip(l1.objects, l2.objects))
    if not l1.on_dual and l2.on_dual:
        # client output against a store input: the client may write anonymously
        return all(_component_dual(b, a, True) for a, b in zip(l1.objects, l2.objects))
    return False


def input_labels(node, universe, cap: int = 256) -> list:
    """Input transitions the node offers for values drawn from a universe."""
    universe = list(universe)
    out = []
    for subject, arity in sorted(set(collect_inps(node))):
        for values in itertools.islice(itertools.product(universe, repeat=arity), cap):
            for to_dual in (False, True):
                for succ in feed(node, subject, to_dual, tuple(values)):
                    out.append((InpLabel(subject, to_dual, tuple(values)), succ))
    return out
