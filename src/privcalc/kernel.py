"""Core abstract syntax: processes, systems, private data, binding and
structural-congruence normalization.

Restriction and parallel composition, of processes and of systems alike,
are one n-ary node, `Block`: a list of restricted names over a tuple of
components, the standard form of the pi-calculus. A normal form has one
block per scope, its components sorted and none of them a block.

Values are immutable after construction; every operation here is pure.
Source spans ride along on nodes but never participate in equality, so
normalized forms compare structurally.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "Record", "field", "replace",
    "Span", "KernelError", "IncompatibleSubstitution",
    "Known", "HIDDEN", "Hidden", "IVar", "Identity",
    "DConst", "DVar", "DataValue", "PrivateData",
    "TName", "TDual", "TConst", "TVar", "TPriv", "Term",
    "PVar", "PPair", "PAnon", "Placeholder",
    "TPrivate", "TPurpose", "TChan", "PrivacyType",
    "PNil", "POut", "PInp", "PRepl", "PIf", "PStore", "Process",
    "Group", "SBare", "System", "Block",
    "NIL", "children", "is_system", "substitute", "free_names", "free_vars",
    "free_atoms", "normalize", "alpha_eq", "fresh_name",
]


# --- records -------------------------------------------------------------------

_MISSING = object()
_setattr = object.__setattr__


class _Field:
    """One declared field of a record."""

    __slots__ = ("name", "default", "factory", "compare", "repr")

    def __init__(self, default=_MISSING, factory=None, compare=True, repr=True):
        self.name = ""
        self.default = default
        self.factory = factory
        self.compare = compare
        self.repr = repr


def field(*, default=_MISSING, default_factory=None, compare=True, repr=True):
    """Options for a record field, given as its class attribute: a default,
    or a factory called for each new record; and whether the field takes
    part in equality, hashing and repr."""
    return _Field(default, default_factory, compare, repr)


def _no_fields(record) -> tuple:
    return ()


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """Base of the package's records. The fields are the class's annotated
    attributes, in order; a plain value is the field's default and
    `field(...)` gives more options. A record class gets

    - construction by position and keyword, then `__post_init__` if the
      class defines one;
    - `==` over the compared fields, between records of one class only;
    - `__match_args__`, naming every field, and `_fields`, the same names;
    - a repr `Name(field=value, ...)` over the fields shown.

    A frozen record (the default; `class R(Record, frozen=False)` makes a
    mutable one) rejects assignment and hashes as the tuple of its compared
    fields. It computes that hash on first use and keeps it, since its
    fields never change; `replace` builds a new record, which computes its
    own. A mutable record is unhashable.

    Every class shares the same few functions, closed over its field list:
    no source is generated per class, which keeps importing the package
    cheap.
    """

    _hash = None  # a frozen record's hash, once computed

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, _MISSING)
            if isinstance(spec, _Field):
                if spec.default is _MISSING:
                    delattr(cls, name)
                else:
                    setattr(cls, name, spec.default)
            else:
                spec = _Field(spec)
            spec.name = name
            if (fields and spec.default is _MISSING and spec.factory is None
                    and (fields[-1].default is not _MISSING or fields[-1].factory)):
                raise TypeError(f"{cls.__name__}: field {name} without a default "
                                "follows one with a default")
            fields.append(spec)
        cls._fields = cls.__match_args__ = tuple(f.name for f in fields)
        cls._repr_fields = tuple(f.name for f in fields if f.repr)
        compared = tuple(f.name for f in fields if f.compare)
        key = attrgetter(*compared) if compared else _no_fields
        cls.__init__ = _record_init(cls, fields)
        cls.__eq__ = _record_eq(key)
        if frozen:
            cls.__hash__ = _record_hash(key, len(compared) == 1)
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
        else:
            cls.__hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{self.__class__.__qualname__}({shown})"


def _record_init(cls, fields: list):
    names = tuple(f.name for f in fields)
    n = len(names)
    if n > 8:
        raise TypeError(f"{cls.__name__}: a record has at most 8 fields")
    f0, f1, f2, f3, f4, f5, f6, f7 = names + (None,) * (8 - n)
    # A positional call may leave out trailing plain defaults, which the
    # record then reads from its class. A factory runs for each new record,
    # so a class with one binds every call that leaves a field out.
    least = n if any(f.factory for f in fields) else sum(f.default is _MISSING for f in fields)
    post = getattr(cls, "__post_init__", None)

    def bind(args: tuple, kwargs: dict) -> tuple:
        """The values of the fields up to the last one the call sets, bound
        as a function whose parameters are the fields would bind them; a
        plain default after that is left to the class."""
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for f in fields[len(args):]:
            if f.name in kwargs:
                values.append(kwargs.pop(f.name))
            elif len(values) >= least and not kwargs:
                break
            elif f.factory is not None:
                values.append(f.factory())
            elif f.default is not _MISSING:
                values.append(f.default)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {f.name!r}")
        for name in kwargs:
            how = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {how} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        m = len(args)
        if kwargs or m < least or m > n:
            args = bind(args, kwargs)
            m = len(args)
        # Unrolled on purpose: parsing builds two records per token, and a
        # loop over the names costs a constructor about a tenth more.
        if m:
            _setattr(self, f0, args[0])
            if m > 1:
                _setattr(self, f1, args[1])
                if m > 2:
                    _setattr(self, f2, args[2])
                    if m > 3:
                        _setattr(self, f3, args[3])
                        if m > 4:
                            _setattr(self, f4, args[4])
                            if m > 5:
                                _setattr(self, f5, args[5])
                                if m > 6:
                                    _setattr(self, f6, args[6])
                                    if m > 7:
                                        _setattr(self, f7, args[7])
        if post is not None:
            post(self)

    return __init__


def _record_eq(key):
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return key(self) == key(other)

    return __eq__


def _record_hash(key, single: bool):
    # `key` gives a lone field's value bare; the hash is of the 1-tuple
    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((key(self),) if single else key(self))
            _setattr(self, "_hash", h)
        return h

    return __hash__


def replace(record, /, **changes):
    """A copy of the record with some fields changed. It is built as a new
    record is, so `__post_init__` checks it and it computes its own hash."""
    cls = type(record)
    values = [changes.pop(name) if name in changes else getattr(record, name)
              for name in cls._fields]
    if changes:
        raise TypeError(f"{cls.__name__} has no field {next(iter(changes))!r}")
    return cls(*values)


class Span(Record):
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}-{self.end_line}:{self.end_col}"


class KernelError(Exception):
    pass


class IncompatibleSubstitution(KernelError):
    def __init__(self, value, placeholder):
        super().__init__(f"cannot substitute {value} for {placeholder}")
        self.value = value
        self.placeholder = placeholder


# --- identities and data values -------------------------------------------

class Known(Record):
    ident: str


class Hidden(Record):
    """The hidden identity `_`, as in `{_ # c}`."""


HIDDEN = Hidden()


class IVar(Record):
    name: str


Identity = Union[Known, Hidden, IVar]


class DConst(Record):
    token: str


class DVar(Record):
    name: str


DataValue = Union[DConst, DVar]


class PrivateData(Record):
    """An identity paired with a piece of data.

    Admissible shapes: Known+Const, Hidden+Const, IVar+DVar, Hidden+DVar,
    plus Known+DVar which marks an uninitialized slot and is only accepted
    inside store nodes (POut/PIf constructors reject it).
    """

    identity: Identity
    data: DataValue

    def __post_init__(self):
        ok = (
            (isinstance(self.identity, Known) and isinstance(self.data, DConst))
            or (isinstance(self.identity, Hidden) and isinstance(self.data, DConst))
            or (isinstance(self.identity, IVar) and isinstance(self.data, DVar))
            or (isinstance(self.identity, Hidden) and isinstance(self.data, DVar))
            or (isinstance(self.identity, Known) and isinstance(self.data, DVar))
        )
        if not ok:
            raise KernelError(f"ill-formed private data {self.identity}#{self.data}")

    @property
    def communicable(self) -> bool:
        return not (isinstance(self.identity, Known) and isinstance(self.data, DVar))

    @property
    def is_constant(self) -> bool:
        return isinstance(self.identity, (Known, Hidden)) and isinstance(self.data, DConst)


# --- terms and placeholders -----------------------------------------------

class TName(Record):
    """A channel or reference name; the two sorts are lexically identical
    and are told apart by their type."""
    name: str


class TDual(Record):
    name: str


class TConst(Record):
    token: str


class TVar(Record):
    name: str


class TPriv(Record):
    pdata: PrivateData


Term = Union[TName, TDual, TConst, TVar, TPriv]


class PVar(Record):
    name: str


class PPair(Record):
    id_var: str
    data_var: str

    def __post_init__(self):
        if self.id_var == self.data_var:
            raise KernelError(f"pattern variables must be distinct: {self.id_var}")


class PAnon(Record):
    data_var: str


Placeholder = Union[PVar, PPair, PAnon]


def placeholder_vars(k: Placeholder) -> tuple[str, ...]:
    match k:
        case PVar(x):
            return (x,)
        case PPair(x, y):
            return (x, y)
        case PAnon(x):
            return (x,)
    raise KernelError(f"not a placeholder: {k!r}")


# --- types (shared with the typing layer) ----------------------------------

class TPrivate(Record):
    ptype: str
    ground: str

    def __str__(self) -> str:
        return f"{self.ptype}<{self.ground}>"


class TPurpose(Record):
    purpose: str
    ground: str

    def __str__(self) -> str:
        return f"{self.purpose}<{self.ground}>"


class TChan(Record):
    group: str
    payload: tuple["PrivacyType", ...]

    def __post_init__(self):
        if not self.payload:
            raise KernelError("channel types carry at least one payload type")

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.payload)
        return f"{self.group}[{inner}]"


PrivacyType = Union[TPrivate, TPurpose, TChan]


# --- processes --------------------------------------------------------------

class PNil(Record):
    span: Optional[Span] = field(default=None, compare=False, repr=False)


NIL = PNil()


def _check_subject(subject: Term):
    if isinstance(subject, (TConst, TPriv)):
        raise KernelError(f"prefix subject must be a name or variable, got {subject}")


def _check_object(obj: Term):
    if isinstance(obj, TDual):
        raise KernelError("a dual endpoint cannot appear in object position")
    if isinstance(obj, TPriv) and not obj.pdata.communicable:
        raise KernelError(f"private data {obj.pdata} is not a communicable form")


class POut(Record):
    subject: Term
    objects: tuple[Term, ...]
    cont: "Process"
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check_subject(self.subject)
        if not self.objects:
            raise KernelError("output carries at least one object")
        for v in self.objects:
            _check_object(v)


class PInp(Record):
    subject: Term
    patterns: tuple[Placeholder, ...]
    cont: "Process"
    annots: tuple[Optional[PrivacyType], ...] = ()
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check_subject(self.subject)
        if not self.patterns:
            raise KernelError("input binds at least one placeholder")
        if self.annots and len(self.annots) != len(self.patterns):
            raise KernelError("annotation arity mismatch")
        seen: set[str] = set()
        for k in self.patterns:
            for x in placeholder_vars(k):
                if x in seen:
                    raise KernelError(f"pattern variable {x} bound twice in one input")
                seen.add(x)


class PRepl(Record):
    body: "Process"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


class PIf(Record):
    op: str  # "=" or ">"
    lhs: Term
    rhs: Term
    then: "Process"
    els: "Process"
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in ("=", ">"):
            raise KernelError(f"unknown comparison operator {self.op!r}")
        for t in (self.lhs, self.rhs):
            if isinstance(t, TDual):
                raise KernelError("dual endpoints cannot be compared")
            if isinstance(t, TPriv) and not t.pdata.communicable:
                raise KernelError("uninitialized private data cannot be compared")


class PStore(Record):
    ref: str  # always a literal reference name, never a variable
    datum: PrivateData
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if isinstance(self.datum.identity, Hidden) and isinstance(self.datum.data, DVar):
            raise KernelError("a store cannot hold a hidden, uninitialized datum")


class Block(Record):
    """Restrictions over a parallel composition, in either family:
    `(new a) (new b) (P | Q)` or `(new a) (S || T)`. `binders` are
    (name, annotation) pairs, outermost first, scoping over every
    component; `comps` holds processes or systems and is never empty. The
    family is that of the first component, which in a normal form is never
    itself a block."""
    binders: tuple[tuple[str, Optional[PrivacyType]], ...]
    comps: tuple
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.comps:
            raise KernelError("a block has at least one component")


Process = Union[PNil, POut, PInp, Block, PRepl, PIf, PStore]


# --- systems -----------------------------------------------------------------

class Group(Record):
    """`G[S]`: the system `S` running in group `G`; `G[P]` is
    `Group(G, SBare(P))`."""
    group: str
    body: "System"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


class SBare(Record):
    """A process at system level, enclosed by no group of its own."""
    body: Process
    span: Optional[Span] = field(default=None, compare=False, repr=False)


System = Union[SBare, Group, Block]


def _block(binders: tuple, comps: tuple):
    """The block of these binders and components, or its lone component
    when it has no binders."""
    return comps[0] if not binders and len(comps) == 1 else Block(binders, comps)


def is_system(node) -> bool:
    """Whether the node is of the system family; a block is of the family
    of its first component."""
    while isinstance(node, Block):
        node = node.comps[0]
    return isinstance(node, (Group, SBare))


def children(node) -> tuple:
    """The node's immediate process and system children, in order."""
    match node:
        case POut(_, _, cont) | PInp(_, _, cont):
            return (cont,)
        case PRepl(body) | Group(_, body) | SBare(body):
            return (body,)
        case PIf(_, _, _, then, els):
            return (then, els)
        case Block(_, comps):
            return comps
    return ()


# --- free names / variables ---------------------------------------------------

def _walk_term(t: Term, bound_names: frozenset[str], bound_vars: frozenset[str],
               out_names: dict[str, None], out_vars: dict[str, None]) -> None:
    """Add the free atoms of one term to the two ordered sets."""
    match t:
        case TName(n) | TDual(n):
            if n not in bound_names:
                out_names[n] = None
        case TVar(x):
            if x not in bound_vars:
                out_vars[x] = None
        case TPriv(pd):
            for v in (pd.identity, pd.data):
                if isinstance(v, (IVar, DVar)) and v.name not in bound_vars:
                    out_vars[v.name] = None


def _walk_free(node, bound_names: frozenset[str], bound_vars: frozenset[str],
               out_names: dict[str, None], out_vars: dict[str, None]) -> None:
    """Collect free tokens into the two dicts (used as ordered sets), in
    order of first free occurrence."""
    match node:
        case PNil():
            return
        case POut(subject, objects, cont):
            for t in (subject, *objects):
                _walk_term(t, bound_names, bound_vars, out_names, out_vars)
            _walk_free(cont, bound_names, bound_vars, out_names, out_vars)
        case PInp(subject, patterns, cont):
            _walk_term(subject, bound_names, bound_vars, out_names, out_vars)
            newly = frozenset(x for k in patterns for x in placeholder_vars(k))
            _walk_free(cont, bound_names, bound_vars | newly, out_names, out_vars)
        case Block(binders, comps):
            inner = bound_names.union(n for n, _ in binders) if binders else bound_names
            for c in comps:
                _walk_free(c, inner, bound_vars, out_names, out_vars)
        case PRepl(body) | Group(_, body) | SBare(body):
            _walk_free(body, bound_names, bound_vars, out_names, out_vars)
        case PIf(_, lhs, rhs, then, els):
            _walk_term(lhs, bound_names, bound_vars, out_names, out_vars)
            _walk_term(rhs, bound_names, bound_vars, out_names, out_vars)
            _walk_free(then, bound_names, bound_vars, out_names, out_vars)
            _walk_free(els, bound_names, bound_vars, out_names, out_vars)
        case PStore(ref, datum):
            if ref not in bound_names:
                out_names[ref] = None
            _walk_term(TPriv(datum), bound_names, bound_vars, out_names, out_vars)
        case TName(_) | TDual(_) | TConst(_) | TVar(_) | TPriv(_):
            _walk_term(node, bound_names, bound_vars, out_names, out_vars)
        case _:
            raise KernelError(f"unexpected node {node!r}")


def free_names(node) -> frozenset[str]:
    names: dict[str, None] = {}
    _walk_free(node, frozenset(), frozenset(), names, {})
    return frozenset(names)


def free_vars(node) -> frozenset[str]:
    vs: dict[str, None] = {}
    _walk_free(node, frozenset(), frozenset(), {}, vs)
    return frozenset(vs)


def free_atoms(node) -> frozenset[str]:
    """All free tokens, names and variables alike; the safe set for
    capture checks and scope extrusion."""
    atoms: dict[str, None] = {}
    _walk_free(node, frozenset(), frozenset(), atoms, atoms)
    return frozenset(atoms)


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    avoid = set(avoid)
    if base not in avoid:
        return base
    for i in itertools.count():
        cand = f"{base}_{i}"
        if cand not in avoid:
            return cand


# --- renaming and substitution ---------------------------------------------------

def _rewrite(node, names: dict[str, str],
             vs: dict[str, tuple[Term, Identity, Optional[DataValue]]],
             fresh: Optional[Callable[[str], str]] = None):
    """The one binder-aware walker. Renames free names through `names` (at
    `TName`, `TDual` and `PStore.ref`) and replaces free variables through
    `vs`, which maps a variable to its replacements at term, identity and
    data positions; a data replacement of None leaves the result undefined
    where the variable fills a data slot. A binder shadows its own token,
    and a restriction that would capture an incoming atom is renamed apart.
    Given `fresh`, every binder is renamed to `fresh(kind)` instead ("n"
    for restrictions, "x" for input variables): the canonical renaming.
    Inputs never rename: the values substituted for variables are closed."""
    if fresh is None and not names and not vs:
        return node
    match node:
        case PNil():
            return node
        case POut(s, objs, cont):
            return replace(node, subject=_rewrite(s, names, vs, fresh),
                           objects=tuple(_rewrite(o, names, vs, fresh) for o in objs),
                           cont=_rewrite(cont, names, vs, fresh))
        case PInp(s, pats, cont):
            bound = [x for k in pats for x in placeholder_vars(k)]
            if fresh is None:
                inner = {x: v for x, v in vs.items() if x not in bound}
            else:
                new = {x: fresh("x") for x in bound}
                inner = vs | {x: (TVar(y), IVar(y), DVar(y)) for x, y in new.items()}
                pats = tuple(type(k)(*map(new.get, placeholder_vars(k))) for k in pats)
            return replace(node, subject=_rewrite(s, names, vs, fresh), patterns=pats,
                           cont=_rewrite(cont, names, inner, fresh))
        case Block(binders, comps):
            renamed = []
            for k, (n, annot) in enumerate(binders):
                if fresh is not None:
                    n2 = fresh("n")
                    names = names | {n: n2}
                else:
                    names = {m: v for m, v in names.items() if m != n}
                    incoming = set(names.values()).union(
                        *(free_atoms(t) for t, _, _ in vs.values()))
                    n2 = n
                    if n in incoming:
                        scope = free_atoms(Block(binders[k + 1:], comps))
                        n2 = names[n] = fresh_name(n, scope.union(incoming, names, vs))
                renamed.append((n2, annot))
            return replace(node, binders=tuple(renamed),
                           comps=tuple(_rewrite(c, names, vs, fresh) for c in comps))
        case PRepl(body) | Group(_, body) | SBare(body):
            return replace(node, body=_rewrite(body, names, vs, fresh))
        case PIf(_, lhs, rhs, then, els):
            return replace(node, lhs=_rewrite(lhs, names, vs, fresh),
                           rhs=_rewrite(rhs, names, vs, fresh),
                           then=_rewrite(then, names, vs, fresh),
                           els=_rewrite(els, names, vs, fresh))
        case PStore(ref, datum):
            return replace(node, ref=names.get(ref, ref),
                           datum=_rewrite(TPriv(datum), names, vs, fresh).pdata)
        case TName(n):
            return TName(names[n]) if n in names else node
        case TDual(n):
            return TDual(names[n]) if n in names else node
        case TVar(x):
            return vs[x][0] if x in vs else node
        case TConst(_):
            return node
        case TPriv(pd):
            ident, dat = pd.identity, pd.data
            if isinstance(ident, IVar) and ident.name in vs:
                ident = vs[ident.name][1]
            if isinstance(dat, DVar) and dat.name in vs:
                value, _, dat = vs[dat.name]
                if dat is None:
                    raise IncompatibleSubstitution(value, PVar(pd.data.name))
            if ident is pd.identity and dat is pd.data:
                return node
            return TPriv(PrivateData(ident, dat))
    raise KernelError(f"cannot rewrite {node!r}")


def _rename_name(node, old: str, new: str):
    """Capture-free renaming of the free name `old` to `new`."""
    return _rewrite(node, {old: new}, {})


def _subst_mapping(value: Term, placeholder: Placeholder
                   ) -> dict[str, tuple[Term, Identity, Optional[DataValue]]]:
    """Validate the (value, placeholder) pair and map each placeholder
    variable to its replacements at term, identity and data positions. A
    value without an identity leaves a variable's identity slot as it is;
    one that is not a constant has no data replacement (None)."""
    match placeholder:
        case PVar(x):
            if isinstance(value, TConst):
                return {x: (value, IVar(x), DConst(value.token))}
            if isinstance(value, TName) or (isinstance(value, TPriv)
                                            and value.pdata.is_constant):
                return {x: (value, IVar(x), None)}
            raise IncompatibleSubstitution(value, placeholder)
        case PPair(x, y):
            if (isinstance(value, TPriv) and isinstance(value.pdata.identity, Known)
                    and isinstance(value.pdata.data, DConst)):
                ident = value.pdata.identity
                # term occurrences of the data variable keep the datum's
                # identity tag so successor states stay typable; identity
                # and data slots receive the plain components
                return {x: (TConst(ident.ident), ident, DConst(ident.ident)),
                        y: (value, IVar(y), value.pdata.data)}
            raise IncompatibleSubstitution(value, placeholder)
        case PAnon(y):
            if (isinstance(value, TPriv) and isinstance(value.pdata.identity, Hidden)
                    and isinstance(value.pdata.data, DConst)):
                return {y: (value, IVar(y), value.pdata.data)}
            raise IncompatibleSubstitution(value, placeholder)
    raise IncompatibleSubstitution(value, placeholder)


def substitute(target, value: Term, placeholder: Placeholder):
    """Replace free occurrences of the placeholder's variables by the value's
    components, renaming bound names where needed to avoid capture. A
    replacement whose result would be ill-formed (say, a constant landing in
    subject position) is undefined, like any other incompatible pair."""
    vs = _subst_mapping(value, placeholder)
    try:
        return _rewrite(target, {}, vs)
    except IncompatibleSubstitution:
        raise
    except KernelError:
        raise IncompatibleSubstitution(value, placeholder)


# --- structural-congruence normalization --------------------------------------

def _erased_key(node, name_colors: dict[str, str], var_colors: dict[str, str]) -> str:
    """Serialization with bound tokens replaced positionally: the sort key
    for parallel components, stable under alpha-renaming. Free names and
    free variables are mapped through their colors so the names of binders
    around the component do not leak in. Names and variables are looked up
    apart, as in `free_atoms`."""
    counter = itertools.count()

    def name(n: str, names: dict[str, str]) -> str:
        return names[n] if n in names else name_colors.get(n, n)

    def var(x: str, vs: dict[str, str]) -> str:
        return vs[x] if x in vs else var_colors.get(x, x)

    def term(t: Term, names, vs) -> str:
        match t:
            case TName(n):
                return f"n:{name(n, names)}"
            case TDual(n):
                return f"d:{name(n, names)}"
            case TConst(c):
                return f"c:{c}"
            case TVar(x):
                return f"v:{var(x, vs)}"
            case TPriv(pd):
                i = pd.identity
                istr = (f"i:{i.ident}" if isinstance(i, Known)
                        else "_" if isinstance(i, Hidden) else f"iv:{var(i.name, vs)}")
                d = pd.data
                dstr = f"dc:{d.token}" if isinstance(d, DConst) else f"dv:{var(d.name, vs)}"
                return f"p:{istr}#{dstr}"
        raise KernelError(str(t))

    def go(nd, names: dict[str, str], vs: dict[str, str]) -> str:
        match nd:
            case PNil():
                return "0"
            case POut(s, objs, cont):
                return (f"out({term(s, names, vs)};"
                        f"{','.join(term(o, names, vs) for o in objs)};{go(cont, names, vs)})")
            case PInp(s, pats, cont):
                vs2 = dict(vs)
                ps = []
                for k in pats:
                    for x in placeholder_vars(k):
                        vs2[x] = f"β{next(counter)}"
                    match k:
                        case PVar(x):
                            ps.append(vs2[x])
                        case PPair(x, y):
                            ps.append(f"{vs2[x]}#{vs2[y]}")
                        case PAnon(y):
                            ps.append(f"_#{vs2[y]}")
                return f"inp({term(s, names, vs)};{','.join(ps)};{go(cont, names, vs2)})"
            case Block(binders, comps):
                res, par = ("sr", "sp") if is_system(comps[0]) else ("res", "par")
                names = dict(names)
                out = []
                for n, annot in binders:
                    names[n] = f"ν{next(counter)}"
                    out.append(f"{res}({annot};")
                # right-nested, par(k1|par(k2|k3)): the key format the
                # component order, and so every normal form, rests on
                keys = [go(c, names, vs) for c in comps]
                out += [f"{par}({k}|" for k in keys[:-1]]
                out.append(keys[-1] + ")" * (len(keys) - 1 + len(binders)))
                return "".join(out)
            case PRepl(body):
                return f"rep({go(body, names, vs)})"
            case PIf(op, lhs, rhs, then, els):
                return (f"if({op};{term(lhs, names, vs)};{term(rhs, names, vs)};"
                        f"{go(then, names, vs)};{go(els, names, vs)})")
            case PStore(ref, datum):
                return f"st({name(ref, names)};{term(TPriv(datum), names, vs)})"
            case Group(g, SBare(proc)):
                # `gp` sorts a group around a process before one around a
                # system: the order of mixed group siblings rests on it
                return f"gp({g};{go(proc, names, vs)})"
            case Group(g, body):
                return f"gs({g};{go(body, names, vs)})"
            case SBare(proc):
                return f"sb({go(proc, names, vs)})"
        raise KernelError(str(nd))

    return go(node, {}, {})


def _sort_block(comps: list, binder_names: Iterable[str], names: frozenset[str],
                vs: frozenset[str]) -> list:
    """Order parallel components independently of the current names of the
    block binders and of the names and variables bound around the block:
    those all print as one hole, and binders are colored first uniformly,
    then by the multiset of component shapes referencing them. The sort is
    stable, so sorting a sorted block again keeps its order."""
    holes = dict.fromkeys(vs, "_")
    uniform = dict.fromkeys(names, "_") | dict.fromkeys(binder_names, "ν")
    touching: dict[str, list[str]] = {n: [] for n in binder_names}
    for c in comps:
        key = _erased_key(c, uniform, holes)
        for n in free_names(c):
            if n in touching:
                touching[n].append(key)
    colors = dict.fromkeys(names, "_")
    for n, keys in touching.items():
        colors[n] = "ν(" + "|".join(sorted(keys)) + ")"
    return sorted(comps, key=lambda c: _erased_key(c, colors, holes))


_norm_cache: dict = {}


def normalize(node):
    """Canonical representative of the structural-congruence class.

    Flattens and sorts parallel compositions, removes inert terms, hoists
    restrictions to the top of their scope block, sorts restriction blocks,
    and alpha-renames binders canonically. Never crosses group boundaries.
    One pass suffices: no sort key or binder order reads a bound name, so
    the renaming cannot change them and a normal form normalizes to itself.
    """
    key = node
    try:
        hit = _norm_cache.get(key)
    except TypeError:
        hit = None
        key = None
    if hit is not None:
        return hit
    result = _canonical_rename(_normalize1(node, frozenset(), frozenset()))
    if key is not None and len(_norm_cache) < 100_000:
        # a normal form is its own normal form, so it answers itself too
        result = _norm_cache.setdefault(result, result)
        _norm_cache[key] = result
    return result


def _normalize1(node, names: frozenset[str], vs: frozenset[str]):
    """One normalizing pass; `names` and `vs` hold the names and variables
    bound around the node, which sort keys must not read by name, since the
    canonical renaming changes them."""
    match node:
        case PNil():
            return NIL
        case POut(s, objs, cont):
            return replace(node, cont=_normalize1(cont, names, vs))
        case PInp(s, pats, cont):
            bound = vs.union(*map(placeholder_vars, pats))
            return replace(node, cont=_normalize1(cont, names, bound))
        case PRepl(body):
            b = _normalize1(body, names, vs)
            if b == NIL:
                return NIL
            return replace(node, body=b)
        case PIf(op, lhs, rhs, then, els):
            return replace(node, then=_normalize1(then, names, vs),
                           els=_normalize1(els, names, vs))
        case PStore(_, _):
            return node
        case Block():
            return _flatten_block(node, names, vs)
        case Group(_, body):
            return replace(node, body=_normalize1(body, names, vs))
        case SBare(body):
            # built afresh, not replaced: a span here would give the typing
            # errors of explored states a source location
            return SBare(_normalize1(body, names, vs))
    raise KernelError(f"cannot normalize {node!r}")


def _flatten_block(node: Block, names: frozenset[str], vs: frozenset[str]):
    """Flatten one scope block of either family: nested blocks are hoisted
    into one binder list and one component list (renaming binders that
    would clash), each component is normalized, inert components and unused
    binders are dropped, and the block is rebuilt in sorted order. With no
    component left, the result is the first inert one."""
    binders: dict[str, Optional[PrivacyType]] = {}
    comps: list = []
    taken: set[str] = set()
    free_added = False

    def hoist(nd, nested: bool):
        nonlocal free_added
        if not isinstance(nd, Block):
            comps.append(nd)
            return
        bs, cs = nd.binders, nd.comps
        for k, (n, annot) in enumerate(bs):
            # a binder of the block's own leading binders is never free in
            # the block: the block's free atoms matter only for a binder
            # below a parallel, or for renaming a duplicate binder
            if not free_added and (nested or n in taken):
                taken.update(free_atoms(node))
                free_added = True
            n2 = fresh_name(n, taken)
            taken.add(n2)
            binders[n2] = annot
            if n2 != n:
                hoist(_rename_name(Block(bs[k + 1:], cs), n, n2), nested)
                return
        for c in cs:
            hoist(c, nested or len(cs) > 1)

    hoist(node, False)
    # components are never blocks here, and normalizing one cannot make it
    # a block, so one pass leaves nothing to hoist
    inner = names.union(binders)
    normal = [_normalize1(c, inner, vs) for c in comps]
    inert = (NIL, SBare(NIL))
    comps = [c for c in normal if c not in inert]
    if not comps:
        return normal[0]
    comps = _sort_block(comps, binders, names, vs)
    # binders in order of first free occurrence in the sorted components;
    # one that does not occur is dropped
    serial: dict[str, None] = {}
    for c in comps:
        _walk_free(c, frozenset(), frozenset(), serial, {})
    return _block(tuple((n, binders[n]) for n in serial if n in binders), tuple(comps))


def _canonical_rename(node):
    """Rename every binder to a canonical positional name, skipping the
    node's free atoms. Restrictions bind names and inputs bind variables,
    each in its own environment, as in `free_atoms`."""
    counter = itertools.count()
    free = free_atoms(node)

    def nm(kind: str) -> str:
        while True:
            cand = f"_{kind}{next(counter)}"
            if cand not in free:
                return cand

    return _rewrite(node, {}, {}, nm)


# --- alpha equivalence ---------------------------------------------------------

def alpha_eq(p, q) -> bool:
    """Equality up to consistent renaming of bound names and variables."""
    return _canonical_rename(p) == _canonical_rename(q)
