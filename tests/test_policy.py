import random

import pytest
from hypothesis import given, settings, strategies as st

from privcalc.policy import (
    AGGREGATE, FIN, Hierarchy, Lambda, NotFound, OMEGA, Perm, PermSet,
    Policy, READ, READID, REFERENCE, STORE, UPDATE, check_wellformed, covers,
    descend, descent, disseminate, flatten, hierarchy_groups, hierarchy_perms, identify,
    lambda_add, nondisclose, perm_union, usage,
)
from privcalc.syntax import parse_policy

from conftest import CORPUS

NETWORK_POLICY = """
private vehicle_data >> Network {} [
  Car {disseminate Network inf} [
    Speedometer {update, store},
    SpeedCheck {read, readId, usage Limit}
  ],
  SpeedAuthority {reference, read}
];
"""


@pytest.fixture(scope="module")
def network():
    res = parse_policy(NETWORK_POLICY)
    assert res.ok
    return res.value


class TestLambdaAdd:
    def test_finite_sum(self):
        assert lambda_add(FIN(1), FIN(2)) == FIN(3)

    def test_omega_absorbs(self):
        assert lambda_add(OMEGA, FIN(5)) == OMEGA
        assert lambda_add(FIN(5), OMEGA) == OMEGA

    def test_commutative_spot(self):
        assert lambda_add(FIN(1), FIN(1)) == FIN(2)


class TestPermUnion:
    def test_plain_union(self):
        assert perm_union(PermSet([READ]), PermSet([UPDATE])) == PermSet([READ, UPDATE])

    def test_disseminate_budgets_add(self):
        a = PermSet([disseminate("Police", 1)])
        assert perm_union(a, a) == PermSet([disseminate("Police", 2)])

    def test_mixed(self):
        a = PermSet([disseminate("G", OMEGA)])
        b = PermSet([READ])
        assert perm_union(a, b) == PermSet([disseminate("G", OMEGA), READ])

    @pytest.mark.parametrize("sets, want", [
        ((), []),
        (([READ], [UPDATE], [READ]), [READ, UPDATE]),
        (([disseminate("G", 1)], [disseminate("G", 2)]), [disseminate("G", 3)]),
        (([disseminate("G", 1)], [disseminate("G", OMEGA)]), [disseminate("G", OMEGA)]),
        (([disseminate("G", OMEGA)], [disseminate("G", 4)]), [disseminate("G", OMEGA)]),
        (([disseminate("G", 1), READ], [disseminate("H", 2)], [disseminate("G", 1), STORE]),
         [READ, STORE, disseminate("G", 2), disseminate("H", 2)]),
        (([usage("p0")], [], [identify("t0"), nondisclose("sensitive")]),
         [usage("p0"), identify("t0"), nondisclose("sensitive")]),
    ])
    def test_merges_as_rebuilding_the_permissions_did(self, sets, want):
        # the union merges the sets' plain permissions and budgets; it must
        # equal the set rebuilt from every permission, budgets in the order
        # in which their groups first occur
        sets = [PermSet(ps) for ps in sets]
        got = perm_union(*sets)
        rebuilt = PermSet(p for ps in sets for p in ps)
        assert got == rebuilt == PermSet(want)
        assert [p for p in got if p.kind == "disseminate"] == \
            [p for p in rebuilt if p.kind == "disseminate"]

    def test_single_set_is_returned_itself(self):
        a = PermSet([READ, disseminate("G", 2)])
        assert perm_union(a) is a


perm_pool = [READ, UPDATE, REFERENCE, STORE, READID, AGGREGATE,
             usage("p0"), usage("p1"), identify("t0"),
             nondisclose("sensitive")]


@st.composite
def permsets(draw):
    plain = draw(st.lists(st.sampled_from(perm_pool), max_size=5))
    n_diss = draw(st.integers(0, 2))
    for i in range(n_diss):
        g = draw(st.sampled_from(["G1", "G2"]))
        lam = draw(st.sampled_from([FIN(1), FIN(3), OMEGA]))
        plain.append(disseminate(g, lam))
    return PermSet(plain)


@given(permsets(), permsets())
def test_perm_union_commutative(a, b):
    assert perm_union(a, b) == perm_union(b, a)


@given(permsets(), permsets(), permsets())
def test_perm_union_associative(a, b, c):
    assert perm_union(perm_union(a, b), c) == perm_union(a, perm_union(b, c))


@given(permsets())
def test_perm_union_idempotent_on_non_disseminate(a):
    plain = PermSet([p for p in a if p.kind != "disseminate"])
    assert perm_union(plain, plain) == plain


@given(permsets(), permsets())
def test_perm_union_disseminate_budgets_add(a, b):
    u = perm_union(a, b)
    for g in a.diss_groups() | b.diss_groups():
        la, lb = a.diss_budget(g), b.diss_budget(g)
        want = la if lb is None else lb if la is None else lambda_add(la, lb)
        assert u.diss_budget(g) == want


@given(permsets(), permsets())
def test_nondiscloses(a, b):
    """`nondiscloses` says whether a set holds a nondisclosure permission,
    and a union holds one when either operand does."""
    assert a.nondiscloses() == any(p.kind == "nondisclose" for p in a)
    assert perm_union(a, b).nondiscloses() == (a.nondiscloses() or b.nondiscloses())
    assert not PermSet([READ, disseminate("G1", OMEGA)]).nondiscloses()
    assert PermSet([READ, nondisclose("confidential")]).nondiscloses()


def test_permission_rendering():
    assert str(disseminate("Police", 1)) == "disseminate Police 1"
    assert str(nondisclose("confidential")) == "nondisclose confidential"
    assert str(usage("diagnosis")) == "usage diagnosis"
    assert str(identify("crime")) == "identify crime"


class TestCollectors:
    def test_network_groups(self, network):
        h = network.lookup("vehicle_data")
        assert hierarchy_groups(h) == {"Network", "Car", "Speedometer",
                                       "SpeedCheck", "SpeedAuthority"}

    def test_leaf_perms(self):
        assert hierarchy_perms(Hierarchy("G", PermSet([READ]))) == PermSet([READ])

    def test_disseminate_merge_through_children(self):
        child = Hierarchy("C", PermSet([disseminate("N", 1)]))
        root = Hierarchy("G", PermSet([disseminate("N", 1)]), (child,))
        assert hierarchy_perms(root) == PermSet([disseminate("N", 2)])


class TestWellformed:
    @pytest.mark.parametrize("name", ["hospital", "etp_central",
                                      "etp_decentral", "speedlimit"])
    def test_corpus_policies_pass(self, name):
        pol = parse_policy((CORPUS / f"{name}.ppo").read_text()).value
        assert check_wellformed(pol) == []

    def test_network_passes(self, network):
        assert check_wellformed(network) == []

    def test_duplicate_type(self):
        h = Hierarchy("G", PermSet())
        p = Policy((("t", h), ("t", h)))
        out = check_wellformed(p)
        assert [v.condition for v in out] == [1]

    def test_cycle(self):
        p = Policy((("t", Hierarchy("G", PermSet(),
                                    (Hierarchy("G", PermSet()),))),))
        assert [v.condition for v in check_wellformed(p)] == [2]

    def test_nondisclosure_conflict(self):
        leak = Hierarchy("C", PermSet([disseminate("Outside", 1)]))
        p = Policy((("t", Hierarchy("G", PermSet([nondisclose("confidential")]),
                                    (leak,))),))
        assert [v.condition for v in check_wellformed(p)] == [3]


_GRANT = PermSet([READ, usage("Limit"), identify("t"), disseminate("Police", 2),
                  disseminate("Court", OMEGA)])


@pytest.mark.parametrize("perm, covered", [
    (READ, True),
    (UPDATE, False),
    (usage("Limit"), True),
    (usage("Billing"), False),
    (identify("t"), True),
    (identify("u"), False),
    (disseminate("Police", 1), True),
    (disseminate("Police", 2), True),
    (disseminate("Police", 3), False),
    (disseminate("Police", OMEGA), False),
    (disseminate("Press", 1), False),
    (disseminate("Court", 7), True),
    (disseminate("Court", OMEGA), True),
])
def test_covers(perm, covered):
    """A dissemination is covered within its group's budget, any other
    permission by membership."""
    assert covers(_GRANT, perm) is covered


@pytest.mark.parametrize("path, groups", [
    (("Car",), []),
    (("Network", "Bus"), ["Network"]),
    (("Network", "Car", "SpeedCheck", "Radar"), ["Network", "Car", "SpeedCheck"]),
    (("Network", "Car", "SpeedCheck"), ["Network", "Car", "SpeedCheck"]),
    (("Network", "SpeedAuthority"), ["Network", "SpeedAuthority"]),
    ((), []),
])
def test_descend(network, path, groups):
    """The nodes along a path, stopping at the first group the hierarchy
    lacks: a wrong root, a missing child, a full path and an empty path.
    `descent` keeps on the hierarchy how many there are, their union,
    which a path that leaves the hierarchy has none of, and where on the
    path a nondisclosure holds, with the groups below it."""
    h = network.lookup("vehicle_data")
    nodes = descend(h, path)
    assert [n.group for n in nodes] == groups
    assert all(child in parent.children for parent, child in zip(nodes, nodes[1:]))
    assert nodes[:1] in ([], [h])
    kept = descent(h, path)
    assert kept == (len(nodes), perm_union(*(n.perms for n in nodes))
                    if len(nodes) == len(path) else None,
                    tuple((tuple(path[:k]), hierarchy_groups(n))
                          for k, n in enumerate(nodes, 1) if n.perms.nondiscloses()))
    assert descent(h, path) is kept and h._descents[path] is kept


def test_descent_places_nondisclosures():
    """Each nondisclosing node on a path, with the path to it and the
    groups of its subtree, also where the path then leaves the hierarchy."""
    h = parse_policy("private t >> A {nondisclose sensitive} "
                     "[ B {read} [ C {nondisclose confidential} ], D {} ];").value.lookup("t")
    everything = frozenset("ABCD")
    assert descent(h, ("A", "B", "C")) == (
        3, PermSet([nondisclose("sensitive"), READ, nondisclose("confidential")]),
        ((("A",), everything), (("A", "B", "C"), frozenset("C"))))
    assert descent(h, ("A", "X")) == (1, None, ((("A",), everything),))
    assert descent(h, ("X",)) == (0, None, ())


class TestFlatten:
    def test_network_flat(self, network):
        h = network.lookup("vehicle_data")
        flat = flatten(h, ["Network", "Car", "SpeedCheck"])
        assert flat.path == ("Network", "Car", "SpeedCheck")
        assert flat.perms == PermSet([disseminate("Network", OMEGA), READ,
                                      READID, usage("Limit")])

    def test_single_node(self):
        h = Hierarchy("G", PermSet([READ]))
        flat = flatten(h, ["G"])
        assert flat.path == ("G",) and flat.perms == PermSet([READ])

    def test_absent_child(self):
        pol = parse_policy((CORPUS / "hospital.ppo").read_text()).value
        out = flatten(pol.lookup("patient_data"), ["Hospital", "Pharmacy"])
        assert isinstance(out, NotFound)
        assert out.missing == "Pharmacy"


def test_flatten_matches_independent_fold(network):
    """Cross-check against a plain left fold over the node chain."""
    rng = random.Random(3)
    h = network.lookup("vehicle_data")

    def random_path(node):
        path = [node.group]
        while node.children and rng.random() < 0.8:
            node = rng.choice(node.children)
            path.append(node.group)
        return path

    for _ in range(50):
        path = random_path(h)
        flat = flatten(h, path)
        node = h
        acc = node.perms
        for g in path[1:]:
            node = next(c for c in node.children if c.group == g)
            acc = perm_union(acc, node.perms)
        assert flat.perms == acc


def test_single_edit_mutants_break_one_condition():
    """Each mutation violates exactly the condition it targets."""
    pol = parse_policy((CORPUS / "hospital.ppo").read_text()).value
    t, h = pol.bindings[0]
    # condition 1: rebind the same type twice
    p1 = Policy(((t, h), (t, h)))
    assert {v.condition for v in check_wellformed(p1)} == {1}
    # condition 2: nest Hospital under itself
    cyc = Hierarchy(h.group, h.perms, h.children + (Hierarchy("Hospital", PermSet()),))
    assert {v.condition for v in check_wellformed(Policy(((t, cyc),)))} == {2}
    # condition 3: nondisclosure at the root over Lab's Police dissemination
    nd = Hierarchy(h.group, perm_union(h.perms, PermSet([nondisclose("sensitive")])),
                   h.children)
    assert {v.condition for v in check_wellformed(Policy(((t, nd),)))} == {3}
