"""Workbench for a pi-calculus with groups and private data: parsing,
permission inference, policy satisfaction, transition semantics, error
detection, and a core-pi encoding."""

from .kernel import (
    alpha_eq, free_names, free_vars, normalize, substitute,
)
from .policy import (
    FlatHierarchy, Hierarchy, Lambda, OMEGA, Perm, PermSet, Policy,
    check_wellformed, flatten, hierarchy_groups, hierarchy_perms,
    lambda_add, perm_union,
)
from .satisfaction import Verdict, policy_satisfies, theta_satisfies, verify
from .semantics import check_preservation, explore
from .safety import count_links, detect_errors, safety_scan
from .encoding import check_correspondence, encode
from .syntax import (
    Gamma, parse_env, parse_policy, parse_process, parse_system,
    render_env, render_policy, render_process, render_system,
)
from .typesys import (
    Delta, Theta, interface_leq, type_match, type_process, type_system,
    type_value,
)

__version__ = "0.1.0"
