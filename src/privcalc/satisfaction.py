"""Deciding whether an inferred interface satisfies a policy, and the
end-to-end verdict for a system against a policy and environment."""

from __future__ import annotations

from typing import Optional

from .kernel import Record, System, field
from .policy import (
    Hierarchy, NotFound, Policy, check_wellformed, covers, flatten,
)
from .syntax import Gamma
from .typesys import Theta, ThetaEntry, TypingError, type_system

__all__ = ["Witness", "Verdict", "theta_satisfies", "policy_satisfies", "verify"]


class Witness(Record):
    ptype: str
    theta_path: tuple[str, ...]
    policy_path: tuple[str, ...]
    failing: tuple[str, ...]  # permissions not covered, or a missing-group note

    def render(self) -> str:
        where = ".".join(self.theta_path) or "<bare>"
        at = ".".join(self.policy_path) or "<policy>"
        return f"{self.ptype} at {where}: {'; '.join(self.failing)} (policy node {at})"


class Verdict(Record, frozen=False):
    satisfied: bool
    witnesses: list[Witness] = field(default_factory=list)
    theta: Optional[Theta] = None
    error: Optional[str] = None  # parse or typing failure, if any

    def render(self) -> str:
        if self.error is not None:
            return f"unsatisfied: {self.error}"
        if self.satisfied:
            return "satisfied"
        lines = ["unsatisfied:"]
        lines += [f"  {w.render()}" for w in self.witnesses]
        return "\n".join(lines)


def theta_satisfies(h: Hierarchy, entry: ThetaEntry) -> tuple[bool, Optional[Witness]]:
    """Flatten the policy hierarchy along the interface's group path and
    compare the permissions it grants there. The terminal comparison
    ignores any unexplored policy children."""
    path, perms, ptype = entry.path, entry.perms, entry.ptype
    if not path:
        return False, Witness(ptype, path, (), ("component not enclosed by a group",))
    granted = flatten(h, path)
    if isinstance(granted, NotFound):
        if not granted.prefix:
            return False, Witness(ptype, path, (h.group,),
                                  (f"interface roots at {path[0]}, policy at {h.group}",))
        return False, Witness(ptype, path, granted.prefix,
                              (f"no policy group {granted.missing}",))
    failing = tuple(str(p) for p in perms.sorted() if not covers(granted.perms, p))
    if not failing:
        return True, None
    return False, Witness(ptype, path, path, failing)


def policy_satisfies(p: Policy, theta: Theta, strict_coverage: bool = False) -> Verdict:
    """Every interface entry bound by the policy must satisfy its hierarchy;
    entries for types the policy does not bind are ignored by default and
    rejected under strict coverage."""
    witnesses: list[Witness] = []
    for entry in theta.canonical():
        h = p.lookup(entry.ptype)
        if h is None:
            if strict_coverage and entry.perms:
                witnesses.append(Witness(entry.ptype, entry.path, (),
                                         ("type not covered by the policy",)))
            continue
        ok, w = theta_satisfies(h, entry)
        if not ok:
            witnesses.append(w)
    return Verdict(not witnesses, witnesses, theta=theta)


def verify(p: Policy, gamma: Gamma, s: System, strict_coverage: bool = False,
           id_direction: str = "anon") -> Verdict:
    """Type the system and check its interface against the policy. A policy
    that is not well formed, or a system that does not typecheck, yields an
    unsatisfied verdict carrying the failure."""
    wf = check_wellformed(p)
    if wf:
        return Verdict(False, error="; ".join(str(v) for v in wf))
    try:
        st = type_system(gamma, s, id_direction=id_direction)
    except TypingError as e:
        return Verdict(False, error=str(e))
    return policy_satisfies(p, st.theta, strict_coverage=strict_coverage)
