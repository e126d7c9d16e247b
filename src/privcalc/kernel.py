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
from operator import attrgetter, is_
from typing import Collection, Iterable, Optional, Union

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
    "NIL", "children", "with_children", "is_system", "substitute", "free_names",
    "free_vars", "free_atoms", "normalize", "alpha_eq", "fresh_name",
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
    fields never change; a record that `replace` builds computes its own,
    and one that `replace` returns unchanged keeps it. A process or system
    node keeps its free atoms (`_free`), its normal form, its `_alpha_key`
    and its step facts (`semantics.visible_outs`, `input_subjects`,
    `reference_names`, and the successors `feed` gives for each delivery)
    the same way; a block component keeps its structural normal form with
    the holes it was computed under, its canonical renaming and its sort
    key, and a component of an encoded core form its mark. A system node
    keeps its typing too, with the environment object and identify
    direction it was typed under. What is kept is never mutated, but a
    node's deliveries gain entries. A mutable record is unhashable.

    Every class shares the same few functions, closed over its field list:
    no source is generated per class, which keeps importing the package
    cheap.
    """

    _hash = None  # a frozen record's hash, once computed
    _atoms = None  # a process or system node's free atoms, once computed
    _norm = None  # a process or system node's normal form (`normalize`)
    _cnorm = None  # a block component's structural normal form, with its holes
    _canon = None  # a block component's canonical renaming (`_Numbering`)
    _skey = None  # a block component's sort key, with its atoms' classes (`_sort_keys`)
    _akey = None  # a node's `_alpha_key`
    _outs = None  # a node's output capabilities (`semantics.visible_outs`)
    _ins = None  # a node's reader subjects (`semantics.input_subjects`)
    _refs = None  # a node's store references (`semantics.reference_names`)
    _fed = None  # a node's successors per delivery (`semantics.feed`)
    _core = None  # set on a core form's component (`encoding._core_form`)
    _typing = None  # a system node's last typing (`typesys.type_system`)

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
        # Unrolled on purpose: every node built passes here, and a loop over
        # the names, or `__dict__.update`, takes `TName(...)` from about 0.45
        # to 0.7 µs and `POut(...)` from 1.2 to 1.4 µs (`timeit`, Python 3.11).
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
    """The record with some fields changed. A frozen record whose every
    changed field gets its current value back (the same object, or a tuple
    of the same objects) is returned itself, keeping its hash and free
    atoms. Otherwise a copy is built as a new record is, so `__post_init__`
    checks it and it computes its own hash; a mutable record always gets a
    copy."""
    cls = type(record)
    kept = cls.__setattr__ is _frozen_setattr
    values = []
    for name in cls._fields:
        value = getattr(record, name)
        if name in changes:
            new = changes.pop(name)
            kept = kept and _same(new, value)
            value = new
        values.append(value)
    if changes:
        raise TypeError(f"{cls.__name__} has no field {next(iter(changes))!r}")
    return record if kept else cls(*values)


def _same(new, old) -> bool:
    """Whether a field's new value is its current one: the same object, or
    a tuple of the same objects."""
    return new is old or (type(new) is tuple and type(old) is tuple
                          and len(new) == len(old) and all(map(is_, new, old)))


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


def with_children(node, kids: tuple):
    """The node with its children, in the order `children` gives them,
    replaced by `kids`: the inverse of `children`. Through `replace`, the
    node itself when every kid is its current child."""
    match node:
        case POut() | PInp():
            return replace(node, cont=kids[0])
        case PRepl() | Group() | SBare():
            return replace(node, body=kids[0])
        case PIf():
            return replace(node, then=kids[0], els=kids[1])
        case Block():
            return replace(node, comps=kids)
        case PNil() | PStore():
            return node
    raise KernelError(f"not a process or system node: {node!r}")


# --- free names / variables ---------------------------------------------------

_NO_ATOMS: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())


def _data_vars(pd: PrivateData) -> tuple[str, ...]:
    """The variables of a private datum, its identity's first."""
    ident, dat = pd.identity, pd.data
    if isinstance(ident, IVar):
        if isinstance(dat, DVar) and dat.name != ident.name:
            return (ident.name, dat.name)
        return (ident.name,)
    return (dat.name,) if isinstance(dat, DVar) else ()


def _join(parts: list, bound_names=()) -> tuple:
    """The free atoms of a sequence of parts, given as (names, variables)
    pairs in order, less the bound names."""
    names: dict[str, None] = {}
    vs: dict[str, None] = {}
    for ns, xs in parts:
        for n in ns:
            names[n] = None
        for x in xs:
            vs[x] = None
    for n in bound_names:
        names.pop(n, None)
    return tuple(names), tuple(vs)


def _after_terms(terms: tuple, rest: tuple) -> tuple:
    """The free atoms of `terms` followed by the pair `rest`. When `rest`
    already begins with the terms' atoms, as along a prefix chain on one
    channel, it is the result."""
    names: list[str] = []
    vs: list[str] = []
    for t in terms:
        if isinstance(t, (TName, TDual)):
            if t.name not in names:
                names.append(t.name)
        elif isinstance(t, TVar):
            if t.name not in vs:
                vs.append(t.name)
        elif isinstance(t, TPriv):
            vs += [x for x in _data_vars(t.pdata) if x not in vs]
    rn, rv = rest
    if rn[:len(names)] == tuple(names) and rv[:len(vs)] == tuple(vs):
        return rest
    return _join([(names, vs), rest])


def _free(node) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The node's free names and free variables, each in order of first
    free occurrence. A process or system node computes them from its
    children's and keeps them on the node; a term computes them directly."""
    atoms = node._atoms
    if atoms is not None:
        return atoms
    match node:
        case POut(subject, objects, cont):
            atoms = _after_terms((subject, *objects), _free(cont))
        case PInp(subject, patterns, cont):
            bound = [x for k in patterns for x in placeholder_vars(k)]
            names, vs = atoms = _free(cont)
            if any(x in bound for x in vs):
                atoms = names, tuple(x for x in vs if x not in bound)
            atoms = _after_terms((subject,), atoms)
        case Block(binders, comps):
            atoms = _join([_free(c) for c in comps], [n for n, _ in binders])
        case PRepl(body) | Group(_, body) | SBare(body):
            atoms = _free(body)
        case PIf(_, lhs, rhs, then, els):
            atoms = _after_terms((lhs, rhs), _join([_free(then), _free(els)]))
        case PStore(ref, datum):
            atoms = (ref,), _data_vars(datum)
        case PNil():
            atoms = _NO_ATOMS
        case TName(n) | TDual(n):
            return (n,), ()
        case TVar(x):
            return (), (x,)
        case TConst(_):
            return _NO_ATOMS
        case TPriv(pd):
            return (), _data_vars(pd)
        case _:
            raise KernelError(f"unexpected node {node!r}")
    _setattr(node, "_atoms", atoms)
    return atoms


def free_names(node) -> frozenset[str]:
    return frozenset(_free(node)[0])


def free_vars(node) -> frozenset[str]:
    return frozenset(_free(node)[1])


def free_atoms(node) -> frozenset[str]:
    """All free tokens, names and variables alike; the safe set for
    capture checks and scope extrusion."""
    names, vs = _free(node)
    return frozenset(names).union(vs)


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
             fresh: Optional[_Numbering] = None):
    """The one binder-aware walker. Renames free names through `names` (at
    `TName`, `TDual` and `PStore.ref`) and replaces free variables through
    `vs`, which maps a variable to its replacements at term, identity and
    data positions; a data replacement of None leaves the result undefined
    where the variable fills a data slot. A binder shadows its own token,
    and `_apart` renames a block's restrictions apart from the incoming
    atoms (the values of `names`, the free atoms of the replacements).
    Given `fresh`, every binder is renamed to `fresh(kind)` instead ("n"
    for restrictions, "x" for input variables): the canonical renaming,
    which maps only the binders it renames to another token and renames
    each block component through `fresh.component`.
    Inputs never rename: the values substituted for variables are closed.
    A node in which nothing changes comes back itself."""
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
            inner = {x: v for x, v in vs.items() if x not in bound}
            if fresh is not None:
                new = {x: y for x in bound if (y := fresh("x")) != x}
                if new:
                    inner |= {x: (TVar(y), IVar(y), DVar(y)) for x, y in new.items()}
                    pats = tuple(type(k)(*(new.get(x, x) for x in placeholder_vars(k)))
                                 if any(x in new for x in placeholder_vars(k)) else k
                                 for k in pats)
            return replace(node, subject=_rewrite(s, names, vs, fresh), patterns=pats,
                           cont=_rewrite(cont, names, inner, fresh))
        case Block(binders, comps):
            if fresh is None:
                names = {m: v for m, v in names.items() if all(m != n for n, _ in binders)}
                incoming = set(names.values()).union(
                    *(free_atoms(t) for t, _, _ in vs.values()))
                # and the keys, or the walk below renames a renamed name again
                binders, comps = _apart(binders, comps, incoming.union(names, vs))
                return replace(node, binders=binders,
                               comps=tuple(_rewrite(c, names, vs, fresh) for c in comps))
            names = dict(names)
            renamed = []
            for b in binders:
                n2 = fresh("n")
                if n2 == b[0]:
                    names.pop(n2, None)
                else:
                    names[b[0]] = n2
                    b = (n2, b[1])
                renamed.append(b)
            return replace(node, binders=tuple(renamed),
                           comps=tuple(fresh.component(c, names, vs) for c in comps))
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


def _apart(binders: tuple, scope: tuple, clash) -> tuple[tuple, tuple]:
    """Rename restrictions apart from the atoms in `clash`. `binders` are
    (name, annot) pairs, outermost first, that bind over every part of
    `scope`, each a process or a term. Each binder in `clash`, outermost
    first, gets the first fresh name outside `clash`, the free atoms of
    `scope` and the other binders, and is renamed in every part; when no
    binder is in `clash`, both come back as they were. Substitution,
    hoisting, scope extrusion and delivery into a block all call it."""
    if not any(n in clash for n, _ in binders):
        return binders, scope
    avoid = set(clash).union(*map(free_atoms, scope), (n for n, _ in binders))
    renames: dict[str, str] = {}
    renamed = []
    for b in binders:
        if b[0] in clash:
            # of two binders of one name the inner one binds the scope; it
            # comes later, so its new name is the one left in `renames`
            n2 = renames[b[0]] = fresh_name(b[0], avoid)
            avoid.add(n2)
            b = (n2, b[1])
        renamed.append(b)
    return tuple(renamed), tuple(_rewrite(part, renames, {}) for part in scope)


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

def _erased_key(node, name_colors: dict[str, str], var_colors: dict[str, str],
                exact: bool = False) -> str:
    """Serialization with bound tokens replaced positionally: the sort key
    for parallel components, stable under alpha-renaming. Free names and
    free variables are mapped through their colors so the names of binders
    around the component do not leak in. Names and variables are looked up
    apart, as in `free_atoms`. One walk writes every piece to one list,
    which is joined once. `exact` writes the annotations of inputs, and
    those of restrictions by `repr`, which sort keys leave out or shorten
    (see `_alpha_key`)."""
    out: list[str] = []
    put = out.append
    counter = itertools.count()

    def name(n: str, names: dict[str, str]) -> str:
        return names[n] if n in names else name_colors.get(n, n)

    def var(x: str, vs: dict[str, str]) -> str:
        return vs[x] if x in vs else var_colors.get(x, x)

    def priv(pd: PrivateData, vs: dict[str, str]) -> str:
        i, d = pd.identity, pd.data
        istr = (f"i:{i.ident}" if type(i) is Known
                else "_" if type(i) is Hidden else f"iv:{var(i.name, vs)}")
        dstr = f"dc:{d.token}" if type(d) is DConst else f"dv:{var(d.name, vs)}"
        return f"p:{istr}#{dstr}"

    def term(t: Term, names: dict[str, str], vs: dict[str, str]) -> str:
        tt = type(t)
        if tt is TName:
            return f"n:{name(t.name, names)}"
        if tt is TDual:
            return f"d:{name(t.name, names)}"
        if tt is TVar:
            return f"v:{var(t.name, vs)}"
        if tt is TConst:
            return f"c:{t.token}"
        if tt is TPriv:
            return priv(t.pdata, vs)
        raise KernelError(str(t))

    def go(nd, names: dict[str, str], vs: dict[str, str]) -> None:
        tp = type(nd)
        if tp is POut:
            objs = ",".join([term(o, names, vs) for o in nd.objects])
            put(f"out({term(nd.subject, names, vs)};{objs};")
            go(nd.cont, names, vs)
            put(")")
        elif tp is PInp:
            vs2 = dict(vs)
            ps = []
            for k in nd.patterns:
                if type(k) is PVar:
                    vs2[k.name] = b = f"β{next(counter)}"
                    ps.append(b)
                elif type(k) is PPair:
                    vs2[k.id_var] = b = f"β{next(counter)}"
                    vs2[k.data_var] = b2 = f"β{next(counter)}"
                    ps.append(f"{b}#{b2}")
                else:
                    vs2[k.data_var] = b = f"β{next(counter)}"
                    ps.append(f"_#{b}")
            put(f"inp({term(nd.subject, names, vs)};{','.join(ps)};")
            if exact and nd.annots:
                # no continuation's text starts with "("
                put(repr(nd.annots))
            go(nd.cont, names, vs2)
            put(")")
        elif tp is PRepl:
            put("rep(")
            go(nd.body, names, vs)
            put(")")
        elif tp is Group:
            # `gp` sorts a group around a process before one around a
            # system: the order of mixed group siblings rests on it
            body = nd.body
            if type(body) is SBare:
                put(f"gp({nd.group};")
                body = body.body
            else:
                put(f"gs({nd.group};")
            go(body, names, vs)
            put(")")
        elif tp is SBare:
            put("sb(")
            go(nd.body, names, vs)
            put(")")
        elif tp is Block:
            binders, comps = nd.binders, nd.comps
            res, par = ("sr(", "sp(") if is_system(comps[0]) else ("res(", "par(")
            names = dict(names)
            for n, annot in binders:
                names[n] = f"ν{next(counter)}"
                put(f"{res}{annot!r};" if exact else f"{res}{annot};")
            # right-nested, par(k1|par(k2|k3)): the key format the
            # component order, and so every normal form, rests on
            last = len(comps) - 1
            for c in comps[:last]:
                put(par)
                go(c, names, vs)
                put("|")
            go(comps[last], names, vs)
            put(")" * (last + len(binders)))
        elif tp is PIf:
            put(f"if({nd.op};{term(nd.lhs, names, vs)};{term(nd.rhs, names, vs)};")
            go(nd.then, names, vs)
            put(";")
            go(nd.els, names, vs)
            put(")")
        elif tp is PStore:
            put(f"st({name(nd.ref, names)};{priv(nd.datum, vs)})")
        elif tp is PNil:
            put("0")
        else:
            raise KernelError(str(nd))

    go(node, {}, {})
    return "".join(out)


def _sort_keys(comps: list, binder_names: Collection[str], names: frozenset[str],
               vs: frozenset[str]) -> list[str]:
    """The sort key of each component of a block. The names and variables
    bound around the block print as one hole `_`. The block's binders are
    coloured first uniformly, `ν`, then each by the multiset of the uniform
    keys of the components referencing it, and the key is the component
    written in the second colouring. One `_erased_key` walk per component
    writes each binder as a mark, `\\0name\\0`, and both colourings replace
    the marks in that string.

    That marked key reads nothing of the block but how each of the
    component's free atoms is classified: a binder of the block (by name,
    as the mark), a hole, or free. So the component keeps it with that
    classification (`_skey`), and a block that classifies its atoms alike,
    such as the same block after a step elsewhere, reads it back."""
    marked = holes = None
    touching: dict[str, list[str]] = {}
    keys: list[str] = []
    marks: list[tuple[int, list[str]]] = []
    for c in comps:
        cn, cv = _free(c)
        classes = (tuple([2 if n in binder_names else n in names for n in cn]),
                   tuple([x in vs for x in cv]) if cv else ())
        kept = c._skey
        if kept is not None and kept[0] == classes:
            key = kept[1]
        else:
            if marked is None:
                holes = dict.fromkeys(vs, "_")
                marked = dict.fromkeys(names, "_") | {n: f"\0{n}\0" for n in binder_names}
            key = _erased_key(c, marked, holes)
            _setattr(c, "_skey", (classes, key))
        if "\0" in key:
            # text, binder, text, binder, ..., text
            parts = key.split("\0")
            key = "ν".join(parts[::2])
            for n in set(parts[1::2]):
                touching.setdefault(n, []).append(key)
            marks.append((len(keys), parts))
        keys.append(key)
    # the colours differ from the uniform ones only at binders, so a
    # component that mentions none keeps its first key
    colors = {n: "ν(" + "|".join(sorted(shapes)) + ")" for n, shapes in touching.items()}
    for k, parts in marks:
        parts[1::2] = [colors[n] for n in parts[1::2]]
        keys[k] = "".join(parts)
    return keys


def _sort_block(comps: list, binder_names: Collection[str], names: frozenset[str],
                vs: frozenset[str]) -> list:
    """Order parallel components by `_sort_keys`, independently of the
    current names of the block binders and of the names and variables
    bound around the block. The sort is stable, so sorting a sorted block
    again keeps its order."""
    keys = _sort_keys(comps, binder_names, names, vs)
    return [comps[k] for k in sorted(range(len(comps)), key=keys.__getitem__)]


def normalize(node):
    """Canonical representative of the structural-congruence class.

    Flattens and sorts parallel compositions, removes inert terms, hoists
    restrictions to the top of their scope block, sorts restriction blocks,
    and alpha-renames binders canonically. Never crosses group boundaries.
    One pass suffices: no sort key or binder order reads a bound name, so
    the renaming cannot change them and a normal form normalizes to itself.

    The normal form is kept on `node` and on itself as `_norm`.
    """
    norm = node._norm
    if norm is not None:
        return norm
    norm = _rename_form(_normalize1(node, frozenset(), frozenset()))
    _setattr(node, "_norm", norm)
    return norm


def _rename_form(form):
    """The normal form of a structural normal form, which `_normalize1`
    built: its canonical renaming, kept on `form` and on itself as
    `_norm`."""
    norm = form._norm
    if norm is None:
        norm = _canonical_rename(form)
        _setattr(norm, "_norm", norm)
        _setattr(form, "_norm", norm)
    return norm


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
            # without its span: one would give the typing errors of explored
            # states a source location
            b = _normalize1(body, names, vs)
            return node if b is body and node.span is None else SBare(b)
    raise KernelError(f"cannot normalize {node!r}")


def _hoist(node: Block) -> tuple[dict[str, Optional[PrivacyType]], list]:
    """The binders and components of a scope block of either family with
    its nested blocks hoisted into one binder list and one component list,
    renaming binders that would clash. The components are the block's own
    and its nested blocks', in place and as they are."""
    binders: dict[str, Optional[PrivacyType]] = {}
    comps: list = []
    # a binder is renamed apart from the outer binders and the block's free
    # atoms; a binder of a one-component chain is never one of those atoms
    taken: set[str] = set(free_atoms(node))

    def hoist(nd):
        if not isinstance(nd, Block):
            comps.append(nd)
            return
        bs, cs = _apart(nd.binders, nd.comps, taken)
        for n, annot in bs:
            taken.add(n)
            binders[n] = annot
        for c in cs:
            hoist(c)

    hoist(node)
    return binders, comps


def _hoisted(node: Block) -> Block:
    """The block that `normalize` merges this one into before it
    normalizes and sorts the components: its nested blocks hoisted by
    `_hoist`. A block with no nested block is itself."""
    if not any(isinstance(c, Block) for c in node.comps):
        return node
    binders, comps = _hoist(node)
    return Block(tuple(binders.items()), tuple(comps))


def _flatten_block(node: Block, names: frozenset[str], vs: frozenset[str]):
    """Flatten one scope block of either family: nested blocks are hoisted
    (`_hoisted`), each component is normalized, inert components and unused
    binders are dropped, and the block is rebuilt in sorted order. With no
    component left, the result is the first inert one."""
    flat = _hoisted(node)
    binders = dict(flat.binders)
    comps = flat.comps
    # components are never blocks here, and normalizing one cannot make it
    # a block, so one pass leaves nothing to hoist
    inner = names.union(binders)
    normal = [_normalize_comp(c, inner, vs) for c in comps]
    inert = (NIL, SBare(NIL))
    comps = [c for c in normal if c not in inert]
    if not comps:
        return normal[0]
    comps = _sort_block(comps, binders, names, vs)
    # binders in order of first free occurrence in the sorted components;
    # one that does not occur is dropped
    serial = dict.fromkeys(n for c in comps for n in _free(c)[0] if n in binders)
    return _block(tuple((n, binders[n]) for n in serial), tuple(comps))


def _normalize_comp(c, names: frozenset[str], vs: frozenset[str]):
    """`_normalize1(c, names, vs)`, kept on `c`. The pass reads `names` and
    `vs` only as holes in sort keys, so its result depends only on `c` and
    on which of `c`'s free atoms they hold: `c` keeps the result with those
    atoms (`_cnorm`), and so does the result, which is its own normal form
    under the same holes and has the same free atoms."""
    cn, cv = _free(c)
    holes = (names.intersection(cn), vs.intersection(cv))
    kept = c._cnorm
    if kept is not None and kept[0] == holes:
        return kept[1]
    result = _normalize1(c, names, vs)
    kept = (holes, result)
    _setattr(c, "_cnorm", kept)
    _setattr(result, "_cnorm", kept)
    return result


def _canonical_rename(node):
    """Rename every binder to a canonical positional name, skipping the
    node's free atoms. Restrictions bind names and inputs bind variables,
    each in its own environment, as in `free_atoms`."""
    return _rewrite(node, {}, {}, _Numbering(node))


def _canonical_shaped(token: str) -> bool:
    """Whether a name could be one that the canonical renaming makes."""
    return token[:2] in ("_n", "_x")


class _Numbering:
    """The fresh-name source of one canonical renaming: `_n<i>` or `_x<i>`
    for the next position `i` whose name is not a free atom of the term.
    `skip` holds the free atoms that such a name could be."""

    __slots__ = ("at", "skip")

    def __init__(self, node):
        self.at = 0
        self.skip = frozenset(filter(_canonical_shaped, free_atoms(node)))

    def __call__(self, kind: str) -> str:
        while True:
            cand = f"_{kind}{self.at}"
            self.at += 1
            if cand not in self.skip:
                return cand

    def component(self, c, names: dict, vs: dict):
        """The block component `c` renamed. When the renaming leaves its
        free atoms as they are, the result depends only on `c`, on the
        position it starts at and on the names to skip, so it is kept on
        `c` and on the result, which renames to itself there, as `_canon`:
        (start, skip, the position after it, the result)."""
        if names or vs:
            cn, cv = _free(c)
            if any(n in names for n in cn) or any(x in vs for x in cv):
                return _rewrite(c, names, vs, self)
        start = self.at
        canon = c._canon
        if canon is not None and canon[0] == start and canon[1] == self.skip:
            self.at = canon[2]
            return canon[3]
        result = _rewrite(c, names, vs, self)
        canon = (start, self.skip, self.at, result)
        _setattr(c, "_canon", canon)
        _setattr(result, "_canon", canon)
        return result


# --- alpha equivalence ---------------------------------------------------------

def _alpha_key(node) -> str:
    """A text that two terms share exactly when they are equal up to
    renaming their bound names and variables, written in one `_erased_key`
    walk: every binder by position, every free atom quoted as `repr` writes
    it, so that none reads as a position (`ν0` is an identifier), and
    annotations in full (`exact`). No identifier holds the key's
    punctuation. The key is kept on the node."""
    key = node._akey
    if key is None:
        names, vs = _free(node)
        key = _erased_key(node, {n: repr(n) for n in names}, {x: repr(x) for x in vs},
                          exact=True)
        _setattr(node, "_akey", key)
    return key


def alpha_eq(p, q) -> bool:
    """Equality up to consistent renaming of bound names and variables."""
    return _alpha_key(p) == _alpha_key(q)
