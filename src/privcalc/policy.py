"""Policy language semantics: the permission algebra, what a grant covers,
group hierarchies, well-formedness checking, and the descent along a group
path that every reading of a policy at a path goes through."""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .kernel import Record, _setattr

__all__ = [
    "Lambda", "FIN", "OMEGA", "lambda_add", "lambda_leq",
    "Perm", "PermSet", "perm_union", "covers",
    "Hierarchy", "Policy", "FlatHierarchy", "NotFound",
    "hierarchy_groups", "hierarchy_perms", "check_wellformed", "descend", "descent",
    "flatten",
    "WfViolation",
    "READ", "UPDATE", "REFERENCE", "STORE", "READID", "AGGREGATE",
    "disseminate", "nondisclose", "usage", "identify",
]

ND_KINDS = ("disclosure", "confidential", "sensitive")


class Lambda(Record):
    """A dissemination budget: a positive count or the unlimited marker."""
    count: Optional[int]  # None encodes the unlimited value

    def __post_init__(self):
        if self.count is not None and self.count < 1:
            raise ValueError("finite budgets start at 1")

    @property
    def unlimited(self) -> bool:
        return self.count is None

    def __str__(self) -> str:
        return "inf" if self.unlimited else str(self.count)


def FIN(n: int) -> Lambda:
    return Lambda(n)


OMEGA = Lambda(None)


def lambda_add(a: Lambda, b: Lambda) -> Lambda:
    if a.unlimited or b.unlimited:
        return OMEGA
    return Lambda(a.count + b.count)


def lambda_leq(a: Lambda, b: Lambda) -> bool:
    if b.unlimited:
        return True
    if a.unlimited:
        return False
    return a.count <= b.count


class Perm(Record):
    kind: str
    group: Optional[str] = None      # disseminate
    lam: Optional[Lambda] = None     # disseminate
    nd_kind: Optional[str] = None    # nondisclose
    purpose: Optional[str] = None    # usage
    ptype: Optional[str] = None      # identify

    def __post_init__(self):
        if self.kind == "disseminate" and (self.group is None or self.lam is None):
            raise ValueError("disseminate needs a group and a budget")
        if self.kind == "nondisclose" and self.nd_kind not in ND_KINDS:
            raise ValueError(f"nondisclose kind must be one of {ND_KINDS}")
        if self.kind == "usage" and self.purpose is None:
            raise ValueError("usage needs a purpose type")
        if self.kind == "identify" and self.ptype is None:
            raise ValueError("identify needs a private type")

    def __str__(self) -> str:
        match self.kind:
            case "disseminate":
                return f"disseminate {self.group} {self.lam}"
            case "nondisclose":
                return f"nondisclose {self.nd_kind}"
            case "usage":
                return f"usage {self.purpose}"
            case "identify":
                return f"identify {self.ptype}"
            case _:
                return self.kind


READ = Perm("read")
UPDATE = Perm("update")
REFERENCE = Perm("reference")
STORE = Perm("store")
READID = Perm("readId")
AGGREGATE = Perm("aggregate")


def disseminate(group: str, lam: Union[Lambda, int]) -> Perm:
    if isinstance(lam, int):
        lam = Lambda(lam)
    return Perm("disseminate", group, lam)


def nondisclose(kind: str) -> Perm:
    return Perm("nondisclose", None, None, kind)


def usage(purpose: str) -> Perm:
    return Perm("usage", None, None, None, purpose)


def identify(ptype: str) -> Perm:
    return Perm("identify", None, None, None, None, ptype)


class PermSet:
    """A set of permissions with at most one disseminate entry per group;
    inserting a second merges the budgets."""

    __slots__ = ("_plain", "_diss")

    def __init__(self, perms: Iterable[Perm] = ()):
        plain: set[Perm] = set()
        diss: dict[str, Lambda] = {}
        for p in perms:
            if p.kind == "disseminate":
                if p.group in diss:
                    diss[p.group] = lambda_add(diss[p.group], p.lam)
                else:
                    diss[p.group] = p.lam
            else:
                plain.add(p)
        self._plain = frozenset(plain)
        self._diss = diss

    def __iter__(self):
        yield from self._plain
        for g, lam in self._diss.items():
            yield disseminate(g, lam)

    def __len__(self) -> int:
        return len(self._plain) + len(self._diss)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, p: Perm) -> bool:
        if p.kind == "disseminate":
            return self._diss.get(p.group) == p.lam
        return p in self._plain

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermSet) and self._plain == other._plain
                and self._diss == other._diss)

    def __hash__(self) -> int:
        return hash((self._plain, tuple(sorted(self._diss.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.sorted()) + "}"

    def sorted(self) -> list[Perm]:
        return sorted(self, key=lambda p: (p.kind, p.group or "", p.nd_kind or "",
                                           p.purpose or "", p.ptype or "",
                                           "" if p.lam is None else str(p.lam)))

    def diss_budget(self, group: str) -> Optional[Lambda]:
        return self._diss.get(group)

    def diss_groups(self) -> frozenset[str]:
        return frozenset(self._diss)

    def nondiscloses(self) -> bool:
        return any(p.kind == "nondisclose" for p in self._plain)


EMPTY_PERMS = PermSet()


def perm_union(*sets: PermSet) -> PermSet:
    """The union of the sets, the budgets of one group's disseminations
    added: their plain permissions and budgets merged as they are, with no
    permission rebuilt. A single set is returned itself."""
    if len(sets) == 1:
        return sets[0]
    out = PermSet()
    out._plain = frozenset().union(*(ps._plain for ps in sets))
    for ps in sets:
        for g, lam in ps._diss.items():
            out._diss[g] = lambda_add(out._diss[g], lam) if g in out._diss else lam
    return out


def covers(perms: PermSet, p: Perm) -> bool:
    """Whether a grant covers one permission: a dissemination within its
    group's budget, any other permission by membership."""
    if p.kind == "disseminate":
        budget = perms.diss_budget(p.group)
        return budget is not None and lambda_leq(p.lam, budget)
    return p in perms


# --- hierarchies and policies ---------------------------------------------------

class Hierarchy(Record):
    group: str
    perms: PermSet
    children: tuple["Hierarchy", ...] = ()

    _descents = None  # on a root, by group path: its descent (`descent`)


class FlatHierarchy(Record):
    path: tuple[str, ...]
    perms: PermSet

    def __post_init__(self):
        if not self.path:
            raise ValueError("flat hierarchies have a non-empty group path")

    def __str__(self) -> str:
        out = "{" + ", ".join(str(p) for p in self.perms.sorted()) + "}"
        for g in reversed(self.path):
            out = f"{g}[{out}]"
        return out


class Policy(Record):
    bindings: tuple[tuple[str, Hierarchy], ...]

    _path_grants = None  # by group path: what the error clauses read (`safety._grants`)

    def lookup(self, ptype: str) -> Optional[Hierarchy]:
        for t, h in self.bindings:
            if t == ptype:
                return h
        return None

    def types(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.bindings)


def hierarchy_groups(h: Hierarchy) -> frozenset[str]:
    out = {h.group}
    for c in h.children:
        out |= hierarchy_groups(c)
    return frozenset(out)


def hierarchy_perms(h: Hierarchy) -> PermSet:
    acc = h.perms
    for c in h.children:
        acc = perm_union(acc, hierarchy_perms(c))
    return acc


class WfViolation(Record):
    condition: int  # 1 distinct types, 2 acyclic, 3 nondisclosure consistency
    node_path: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        where = ".".join(self.node_path) or "<policy>"
        return f"condition {self.condition} at {where}: {self.detail}"


def check_wellformed(p: Policy) -> list[WfViolation]:
    """The three conditions: distinct private types, acyclic group nesting,
    and no nondisclosure contradicted by a subtree's dissemination target."""
    out: list[WfViolation] = []
    seen: set[str] = set()
    for t, _ in p.bindings:
        if t in seen:
            out.append(WfViolation(1, (), f"private type {t} bound twice"))
        seen.add(t)

    def walk(h: Hierarchy, path: tuple[str, ...]):
        here = path + (h.group,)
        for c in h.children:
            if h.group in hierarchy_groups(c):
                out.append(WfViolation(2, here, f"group {h.group} recurs under itself"))
        if h.perms.nondiscloses():
            allowed = hierarchy_groups(h)
            for c in h.children:
                for g in hierarchy_perms(c).diss_groups():
                    if g not in allowed:
                        out.append(WfViolation(
                            3, here,
                            f"nondisclosure here but subtree disseminates to {g}"))
        for c in h.children:
            walk(c, here)

    for t, h in p.bindings:
        walk(h, (t,))
    return out


class NotFound(Record):
    prefix: tuple[str, ...]
    missing: str

    def __str__(self) -> str:
        at = ".".join(self.prefix) or "<root>"
        return f"no child {self.missing} under {at}"


def descend(h: Hierarchy, path: Iterable[str]) -> list[Hierarchy]:
    """The hierarchy's nodes along a group path, from its root, stopping at
    the first group the hierarchy lacks there."""
    nodes: list[Hierarchy] = []
    level = (h,)
    for g in path:
        node = next((c for c in level if c.group == g), None)
        if node is None:
            break
        nodes.append(node)
        level = node.children
    return nodes


Nondisclosure = tuple[tuple[str, ...], frozenset[str]]  # (path to a node, its groups)


def descent(h: Hierarchy, path: tuple[str, ...]
            ) -> tuple[int, Optional[PermSet], tuple[Nondisclosure, ...]]:
    """What the hierarchy grants along a group path, from one `descend`:
    how many of the path's groups it has there, the union of their nodes'
    permissions (None where the path leaves the hierarchy), and the path to
    each of those nodes that carries a nondisclosure with the groups of its
    subtree, which that nondisclosure allows links to. It is kept on the
    hierarchy per path, so satisfaction and the error detector descend each
    path of a hierarchy once between them; it holds no node, which would
    make the hierarchy a reference cycle."""
    kept = h._descents
    if kept is None:
        kept = {}
        _setattr(h, "_descents", kept)
    out = kept.get(path)
    if out is None:
        nodes = descend(h, path)
        out = kept[path] = (
            len(nodes),
            perm_union(*(n.perms for n in nodes)) if len(nodes) == len(path) else None,
            tuple((path[:depth], hierarchy_groups(n)) for depth, n in enumerate(nodes, 1)
                  if n.perms.nondiscloses()))
    return out


def flatten(h: Hierarchy, path: Iterable[str]) -> Union[FlatHierarchy, NotFound]:
    """The permissions granted along a group path, accumulated over every
    node on it; the terminal node's own children are ignored."""
    path = tuple(path)
    if not path:
        raise ValueError("flatten needs a non-empty path")
    depth, granted, _ = descent(h, path)
    if granted is None:
        return NotFound(path[:depth], path[depth])
    return FlatHierarchy(path, granted)
