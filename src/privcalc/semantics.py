"""Internal-step semantics: output labels and the deliveries dual to
them, internal steps, the one bounded breadth-first search over them
(which `explore` and the correspondence check both run), and the
type-preservation harness.

Internal steps are found by pairing one component's output capabilities
with another's input capabilities under the duality relation; store
endpoints additionally admit the anonymised exchange of private data. Only
an output and an input on the same subject can react, so a block indexes
its components by the subjects they output and input on and pairs only
those; the successors still come in the order that trying every pair gives,
which `explore`'s edge order and every transcript rest on.
"""

from __future__ import annotations

import bisect
import sys
from typing import Callable, Iterable, Iterator, Optional

from .kernel import (
    Block, DConst, Group, HIDDEN, Hidden, IVar, Known, PIf, PInp, POut,
    PRepl, PStore, PrivacyType, PrivateData, Record, SBare, System,
    TConst, TDual, TName, TPriv, TVar, Term,
    IncompatibleSubstitution, children, field, free_atoms, is_system,
    normalize, replace, substitute, _alpha_key, _apart, _block, _normalize1,
    _rename_form, _setattr,
)
from .syntax import Gamma, render_process, render_system, render_term
from .typesys import Theta, TypingError, interface_leq, type_closed

# State names hash with the interpreter's own SHA-256 module: `hashlib`
# would load OpenSSL at import, which every command-line call pays for.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # a build without it, as some are made for FIPS
    from hashlib import sha256

__all__ = [
    "OutLabel", "tau_successors", "has_step", "input_subjects",
    "StateGraph", "search", "explore",
    "PreservationReport", "check_preservation", "state_key",
]


class OutLabel(Record):
    subject: str
    on_dual: bool
    objects: tuple[Term, ...]
    extruded: tuple[tuple[str, Optional[PrivacyType]], ...] = ()

    def render(self) -> str:
        nu = ""
        if self.extruded:
            nu = "(new " + ", ".join(n for n, _ in self.extruded) + ") "
        s = ("~" if self.on_dual else "") + self.subject
        return f"{nu}{s}!<{', '.join(render_term(o) for o in self.objects)}>"


def _anonymized(v: Term) -> Optional[Term]:
    if isinstance(v, TPriv) and isinstance(v.pdata.identity, Known) \
            and isinstance(v.pdata.data, DConst):
        return TPriv(PrivateData(HIDDEN, v.pdata.data))
    return None


# --- conditional evaluation ---------------------------------------------------------

def _numeric(t: Term) -> Optional[int]:
    tok = None
    if isinstance(t, TConst):
        tok = t.token
    elif isinstance(t, TPriv) and isinstance(t.pdata.data, DConst):
        tok = t.pdata.data.token
    if tok is not None and tok.isdecimal():
        return int(tok)
    return None


def _eval_cond(op: str, lhs: Term, rhs: Term) -> Optional[bool]:
    if op == ">":
        a, b = _numeric(lhs), _numeric(rhs)
        if a is None or b is None:
            return None
        return a > b
    for t in (lhs, rhs):
        if isinstance(t, TVar):
            return None
        if isinstance(t, TPriv) and not t.pdata.is_constant:
            return None
    if isinstance(lhs, TPriv) and isinstance(rhs, TPriv):
        da, db = lhs.pdata.data, rhs.pdata.data
        ia, ib = lhs.pdata.identity, rhs.pdata.identity
        if da != db:
            return False
        if isinstance(ia, Hidden) or isinstance(ib, Hidden):
            return True
        return ia == ib
    if isinstance(lhs, TPriv) or isinstance(rhs, TPriv):
        pd, other = (lhs, rhs) if isinstance(lhs, TPriv) else (rhs, lhs)
        if isinstance(other, (TConst, TName)):
            tok = other.token if isinstance(other, TConst) else other.name
            return pd.pdata.data == DConst(tok)
        return None
    ta = lhs.name if isinstance(lhs, TName) else lhs.token
    tb = rhs.name if isinstance(rhs, TName) else rhs.token
    return ta == tb


def _closed_term(t: Term) -> bool:
    if isinstance(t, TVar):
        return False
    if isinstance(t, TPriv):
        return t.pdata.is_constant
    return True


# --- where a step happens -------------------------------------------------------------

def _context(node) -> tuple[tuple[object, Callable], ...]:
    """Where a step of a replication (in one unfolded copy), a decided
    conditional (in its taken branch), a group or a bare system happens:
    the child, and how the node is rebuilt around the child's successor.
    No such pair for a block, a prefix, a store or an undecided conditional."""
    match node:
        case PRepl(body):
            return ((body, lambda s: Block((), (s, node))),)
        case PIf(op, lhs, rhs, then, els):
            v = _eval_cond(op, lhs, rhs)
            if v is not None:
                return (((then if v else els), lambda s: s),)
        case Group(_, body) | SBare(body):
            return ((body, lambda s: replace(node, body=s)),)
    return ()


def _extruded_apart(label: OutLabel, succ, cs: tuple, k: int) -> tuple[OutLabel, object]:
    """An output of the k-th of the components `cs` and its successor, with
    the names the output extrudes renamed apart from the free atoms of the
    other components, so that none of them is captured."""
    if not label.extruded:
        return label, succ
    others = set().union(*map(free_atoms, cs[:k] + cs[k + 1:]))
    ext, (succ, *objs) = _apart(label.extruded, (succ, *label.objects), others)
    return replace(label, objects=tuple(objs), extruded=ext), succ


# --- congruent siblings ---------------------------------------------------------------

def _distinct(cs: tuple, results: Iterable) -> Iterator[tuple[int, object]]:
    """The positions of the block components `cs` whose results (one per
    component, in order) are not empty, with those results, skipping a
    component that is alpha-equal, free atoms included, to an earlier one
    with results: the block with the two swapped is the same block, so the
    later one's results repeat the earlier one's up to congruence. The
    class key, `_alpha_key` (kept on the component), is computed only from
    the second component with results on, so a block where at most one
    component moves pays nothing."""
    first = seen = None
    for k, r in enumerate(results):
        if not r:
            continue
        if first is None:
            first = k
        else:
            if seen is None:
                seen = {_alpha_key(cs[first])}
            key = _alpha_key(cs[k])
            if key in seen:
                continue
            seen.add(key)
        yield k, r


# --- output capabilities ------------------------------------------------------------

def visible_outs(node) -> list[tuple[OutLabel, object]]:
    """The node's outputs, each with the node's successor after it; of
    congruent block components only the first (`_distinct`). Kept on the
    node, so callers never mutate the list."""
    outs = node._outs
    if outs is None:
        outs = _visible_outs(node)
        _setattr(node, "_outs", outs)
    return outs


def _visible_outs(node) -> list[tuple[OutLabel, object]]:
    match node:
        case POut(subject, objects, cont):
            if isinstance(subject, (TName, TDual)) and all(_closed_term(o) for o in objects):
                return [(OutLabel(subject.name, isinstance(subject, TDual), objects), cont)]
            return []
        case PStore(ref, datum):
            return [(OutLabel(ref, True, (TPriv(datum),)), node)] if datum.is_constant else []
        case Block(bs, cs):
            out: list[tuple[OutLabel, object]] = []
            names = {n for n, _ in bs}
            free = map(visible_outs, cs) if not names else (
                [o for o in visible_outs(c) if o[0].subject not in names] for c in cs)
            for k, outs in _distinct(cs, free):
                for label, succ in outs:
                    label, succ = _extruded_apart(label, succ, cs, k)
                    # binders the objects mention leave with the label, outermost
                    # first and before those of deeper blocks; the others stay
                    # around the successor
                    objs_atoms = set().union(*map(free_atoms, label.objects)) if bs else ()
                    leaving = tuple(b for b in bs if b[0] in objs_atoms)
                    if leaving:
                        label = replace(label, extruded=leaving + label.extruded)
                    out.append((label, _block(tuple(b for b in bs if b[0] not in objs_atoms),
                                              cs[:k] + (succ,) + cs[k + 1:])))
            return out
    return [(label, rebuild(succ)) for child, rebuild in _context(node)
            for label, succ in visible_outs(child)]


# --- input capabilities -------------------------------------------------------------

def feed(node, subject: str, to_dual: bool, values: tuple[Term, ...]) -> list:
    """All ways the node can consume the given delivery; of congruent block
    components only the first is fed (`_distinct`). For a store input
    (to_dual) the delivery is the writer's object and the store applies the
    endpoint duality itself. Kept on the node, one entry per delivery, so a
    component that later states share is fed each delivery once and gives
    the same successor objects, whose normal forms are kept on them; callers
    never mutate the list."""
    fed = node._fed
    if fed is None:
        fed = {}
        _setattr(node, "_fed", fed)
    delivery = (subject, to_dual, values)
    succs = fed.get(delivery)
    if succs is None:
        succs = fed[delivery] = _feed(node, subject, to_dual, values)
    return succs


def _feed(node, subject: str, to_dual: bool, values: tuple[Term, ...]) -> list:
    match node:
        case PInp(subj, patterns, cont):
            if (not to_dual and isinstance(subj, TName) and subj.name == subject
                    and len(patterns) == len(values)):
                try:
                    body = cont
                    for k, v in zip(patterns, values):
                        body = substitute(body, v, k)
                    return [body]
                except IncompatibleSubstitution:
                    pass
            return []
        case PStore(ref, datum):
            if to_dual and ref == subject and len(values) == 1:
                v = values[0]
                if isinstance(v, TPriv) and v.pdata.is_constant:
                    wid, wdat = v.pdata.identity, v.pdata.data
                    if isinstance(wid, Known):
                        # plain write: the store must be uninitialised or match
                        if isinstance(datum.identity, IVar) or datum.identity == wid:
                            return [PStore(ref, PrivateData(wid, wdat))]
                    elif isinstance(wid, Hidden) and isinstance(datum.identity, Known):
                        # anonymous write keeps the store's identity
                        return [PStore(ref, PrivateData(datum.identity, wdat))]
            return []
        case Block(bs, cs):
            if bs:
                if any(n == subject for n, _ in bs):
                    return []
                bs, cs = _apart(bs, cs, set().union(*map(free_atoms, values)))
            # renaming binders apart keeps two components alpha-equal, so
            # the classes are read on the block's own components
            fed = (feed(c, subject, to_dual, values) for c in cs)
            return [Block(bs, cs[:k] + (succ,) + cs[k + 1:])
                    for k, succs in _distinct(node.comps, fed) for succ in succs]
    return [rebuild(succ) for child, rebuild in _context(node)
            for succ in feed(child, subject, to_dual, values)]


def _deliveries(label: OutLabel, refs: frozenset[str]
                ) -> list[tuple[str, bool, tuple[Term, ...]]]:
    """The (subject, to_dual, values) attempts dual to an output label.
    Plain outputs on reference names only reach the store endpoint: clients
    of a store do not exchange data with each other directly."""
    if label.on_dual:
        # store emitting: a client may receive the anonymised form, per component
        variants: list[list[Term]] = [[]]
        for o in label.objects:
            alts = [o]
            anon = _anonymized(o)
            if anon is not None:
                alts.append(anon)
            variants = [v + [a] for v in variants for a in alts]
        return [(label.subject, False, tuple(v)) for v in variants]
    attempts = []
    if label.subject not in refs:
        attempts.append((label.subject, False, label.objects))
    # a plain output may be a store write on the dual endpoint
    attempts.append((label.subject, True, label.objects))
    return attempts


_NO_NAMES: frozenset[str] = frozenset()


def reference_names(node) -> frozenset[str]:
    """Names used as store references anywhere in the term, built from the
    children's and kept on the node."""
    refs = node._refs
    if refs is None:
        if isinstance(node, PStore):
            refs = frozenset((node.ref,))
        else:
            kids = children(node)
            refs = reference_names(kids[0]) if len(kids) == 1 else \
                _NO_NAMES.union(*map(reference_names, kids))
        _setattr(node, "_refs", refs)
    return refs


def input_subjects(node) -> frozenset[str]:
    """The subjects of the inputs and stores that `feed` can reach: those
    where a step can happen (`_context`) and whose subject no block
    around them binds. `feed` consumes only on these subjects, so a
    component without one can be skipped. Kept on the node."""
    subjects = node._ins
    if subjects is None:
        subjects = _input_subjects(node)
        _setattr(node, "_ins", subjects)
    return subjects


def _input_subjects(node) -> frozenset[str]:
    match node:
        case PInp(subj, _, _):
            return frozenset((subj.name,)) if isinstance(subj, TName) else _NO_NAMES
        case PStore(ref, _):
            return frozenset((ref,))
        case Block(bs, cs):
            subjects = _NO_NAMES.union(*map(input_subjects, cs))
            return subjects.difference(n for n, _ in bs) if bs else subjects
    for child, _ in _context(node):
        return input_subjects(child)
    return _NO_NAMES


def _by_subject(subjects: Iterable[Iterable[str]]) -> dict[str, list[int]]:
    """The positions of the components that have each subject, ascending."""
    index: dict[str, list[int]] = {}
    for k, subs in enumerate(subjects):
        for s in subs:
            index.setdefault(s, []).append(k)
    return index


def _after(positions: list[int], i: int) -> list[int]:
    return positions[bisect.bisect_right(positions, i):]


def _pair(node: Block, i: int, label: OutLabel, succ, receivers: Iterable[int],
          refs: frozenset[str]) -> Iterator:
    """Internal steps of the block from one output of its i-th component
    against the inputs of the receiving ones, in order. Each successor
    replaces the two components, and the names the output extrudes join the
    block's binders, renamed away from the other components first."""
    cs = node.comps
    label, succ = _extruded_apart(label, succ, cs, i)
    for subject, to_dual, values in _deliveries(label, refs):
        for j in receivers:
            for osucc in feed(cs[j], subject, to_dual, values):
                comps = list(cs)
                comps[i], comps[j] = succ, osucc
                yield Block(node.binders + label.extruded, tuple(comps))


def _reactions(node: Block, refs: frozenset[str]) -> Iterator:
    """The communications between two components of the block. Only an
    output and an input on the same subject can react (`_deliveries` keeps
    the subject), so the components are indexed by the subjects they output
    and input on, and `feed` runs only on a component that inputs on the
    output's subject. The order is that of trying every pair: for each
    component i from the second-to-last back to the first, its outputs to
    the later components in ascending order, then each later component's
    outputs back to i.

    A (sender, receiver) pair whose components are alpha-equal, free atoms
    included, to those of a pair tried before (`_distinct`'s classes) is
    skipped: its steps repeat that pair's up to congruence, and they would
    have come after them, so the successors that are left keep the order of
    their first occurrences. Two pairs of one class pair share every
    subject, so a pair on a subject with one writer and one reader has no
    such twin, and only the components of crowded subjects get class
    keys."""
    cs = node.comps
    outs = [visible_outs(c) for c in cs]
    inputs = [input_subjects(c) for c in cs]
    readers = _by_subject(inputs)
    writers = _by_subject({lb.subject for lb, _ in o} for o in outs)
    crowded = {s for s, ks in writers.items() if len(ks) > 1 or len(readers.get(s, ())) > 1}
    tried: dict[tuple[str, str], tuple[int, int]] = {}

    def first(i: int, j: int, subject: str) -> bool:
        """Whether the pair of sender i and receiver j is the first of its
        classes to be tried."""
        if subject not in crowded:
            return True
        return tried.setdefault((_alpha_key(cs[i]), _alpha_key(cs[j])), (i, j)) == (i, j)

    for i in reversed(range(len(cs) - 1)):
        for label, succ in outs[i]:
            later = [j for j in _after(readers.get(label.subject, []), i)
                     if first(i, j, label.subject)]
            if later:
                yield from _pair(node, i, label, succ, later, refs)
        for j in sorted({j for s in inputs[i] for j in _after(writers.get(s, []), i)}):
            for label, succ in outs[j]:
                if label.subject in inputs[i] and first(j, i, label.subject):
                    yield from _pair(node, j, label, succ, (i,), refs)


def _steps(node, refs: frozenset[str]) -> Iterator:
    match node:
        case Block(bs, cs):
            steps = (list(_steps(c, refs)) for c in cs)
            for k, succs in _distinct(cs, steps):
                yield from (Block(bs, cs[:k] + (s,) + cs[k + 1:]) for s in succs)
            yield from _reactions(node, refs)
            return
    for child, rebuild in _context(node):
        yield from map(rebuild, _steps(child, refs))


def tau_successors(node) -> list:
    """Internal steps, in a fixed order that `explore`'s edge order rests
    on. For a block: the steps inside each component, first to last; then
    the communications between two components, found through an index of
    the components by subject but listed in the order of trying every
    pair (see `_reactions`)."""
    return list(_steps(node, reference_names(node)))


def has_step(node) -> bool:
    """Whether the node has an internal step; stops at the first one."""
    return next(_steps(node, reference_names(node)), None) is not None


# --- bounded exploration --------------------------------------------------------------

def state_key(node) -> str:
    """The name a state gets in output: a 48-bit sha256 prefix of its
    rendered normal form."""
    norm = normalize(node)
    txt = render_system(norm) if is_system(norm) else render_process(norm)
    return sha256(txt.encode()).hexdigest()[:12]


class StateGraph(Record, frozen=False):
    root: str
    nodes: dict[str, object] = field(default_factory=dict)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    truncated: bool = False
    depths: dict[str, int] = field(default_factory=dict)

    def trace_lines(self) -> list[str]:
        return [f"{src} --{lab}--> {dst}" for src, lab, dst in self.edges]

    def dot(self) -> str:
        lines = ["digraph states {"]
        for key in self.nodes:
            shape = "doublecircle" if key == self.root else "circle"
            lines.append(f'  "{key}" [shape={shape}];')
        for src, lab, dst in self.edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)


def search(start: tuple, successors: Callable[[tuple], Iterable[tuple]], bound: int,
           stop: Optional[Callable[[object], bool]] = None) -> tuple[dict, dict, bool]:
    """Breadth-first search over internal steps from the `(key, state)`
    pair `start`, where `successors` lists the pairs one step from a pair
    and the caller's key alone tells states apart. Each key is expanded
    once, at the depth where it is first met, down to `bound` steps.
    `stop` is asked of every newly met key, the start's included, and a
    true answer ends the search, as an empty frontier does. Returns each
    met key's state and depth, in the order met, and whether the bound cut
    the search off: whether a state on the last frontier has a step."""
    key, state = start
    states, depths = {key: state}, {key: 0}
    if stop is not None and stop(key):
        return states, depths, False
    frontier, d = [start], 0
    while frontier and d < bound:
        d += 1
        nxt = []
        for pair in frontier:
            for key, state in successors(pair):
                if key in states:
                    continue
                states[key], depths[key] = state, d
                if stop is not None and stop(key):
                    return states, depths, False
                nxt.append((key, state))
        frontier = nxt
    return states, depths, any(has_step(q) for _, q in frontier)


def explore(s: System, depth: int) -> StateGraph:
    """Breadth-first internal-step exploration up to the depth bound. A
    successor is searched as its structural normal form, flattened and
    sorted but not renamed, and told apart by `_alpha_key`, which two forms
    share exactly when their normal forms are equal; a form's successors
    normalize to those of its normal form, in the same order. Each state
    kept is then renamed once by `_rename_form`, with no second structural
    pass, and named by `state_key`. The search starts from the root's
    normal form, so the states below it keep canonical binder names unless
    a step made the binder, and renaming them reuses the renamings kept on
    their components. Edges are listed in the order met, once each, so the
    first edge into a state comes from its parent in the search."""
    edges: list[tuple[str, str]] = []

    def successors(pair: tuple[str, object]) -> list[tuple[str, object]]:
        forms = [_normalize1(q, frozenset(), frozenset()) for q in tau_successors(pair[1])]
        out = [(_alpha_key(form), form) for form in forms]
        edges.extend((pair[0], key) for key, _ in out)
        return out

    root = normalize(s)
    rkey = _alpha_key(root)
    forms, depths, truncated = search((rkey, root), successors, depth)
    norms = {key: _rename_form(form) for key, form in forms.items()}
    names = {key: state_key(norm) for key, norm in norms.items()}
    return StateGraph(root=names[rkey],
                      nodes={names[key]: norm for key, norm in norms.items()},
                      edges=list(dict.fromkeys((names[a], "tau", names[b]) for a, b in edges)),
                      truncated=truncated,
                      depths={names[key]: d for key, d in depths.items()})


# --- type preservation harness ---------------------------------------------------------

class PreservationReport(Record, frozen=False):
    edges_checked: int = 0
    violations: list[str] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = "ok" if self.ok else "VIOLATIONS"
        lines = [f"preservation: {status} ({self.edges_checked} edges"
                 f"{', truncated' if self.truncated else ''})"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def check_preservation(gamma: Gamma, graph: StateGraph,
                       id_direction: str = "anon") -> PreservationReport:
    """Re-type every state of an explored graph and check the interface
    never grows along an edge. Each state's Θ is read once, from `thetas`,
    so no typing is kept on the state nodes."""
    report = PreservationReport(truncated=graph.truncated)
    thetas: dict[str, Theta] = {}

    def theta_of(key: str) -> Optional[Theta]:
        if key not in thetas:
            try:
                thetas[key] = type_closed(gamma, graph.nodes[key], id_direction).theta
            except TypingError as e:
                thetas[key] = None
                report.violations.append(f"state {key} fails to type: {e}")
        return thetas[key]

    for src, _, dst in graph.edges:
        report.edges_checked += 1
        t0 = theta_of(src)
        t1 = theta_of(dst)
        if t0 is None or t1 is None:
            continue
        if not interface_leq(t1, t0):
            report.violations.append(
                f"interface grows on {src} -> {dst}: {t1!r} not below {t0!r}")
    return report
