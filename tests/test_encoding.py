import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from privcalc import kernel
from privcalc.kernel import (
    Block, DConst, HIDDEN, Known, NIL, PAnon, PIf, PInp, PNil, POut, PPair,
    PRepl, PStore, PVar, PrivateData, TChan, TConst, TDual, TName, TPriv,
    TPrivate, TPurpose, _alpha_key, _erased_key, alpha_eq, free_names, normalize,
)
from privcalc import encoding
from privcalc.encoding import (
    BRANCH_LABELS, CorrespondenceReport, EncodingError, _core_form, _eval_ifs,
    _state, check_correspondence, core_canonical, encode, render_core,
    select, branch,
)
from privcalc.semantics import reference_names, search, tau_successors
from privcalc.syntax import parse_process, render_process

import gen
import kernel_oracles
from gen import par


def priv(ident, tok):
    return TPriv(PrivateData(ident, DConst(tok)))


STORE = PStore("r", PrivateData(Known("id"), DConst("c")))


class TestEncode:
    def test_store_becomes_state_cell_with_server(self):
        core = encode(STORE)
        txt = render_core(core)
        assert txt.startswith("(new cell)")
        assert "|> { rd:" in txt and "wr:" in txt
        assert "if sw = id" in txt  # the write-side identity check

    def test_nil_homomorphic(self):
        assert encode(NIL) == NIL

    def test_reference_read_opens_session(self):
        p = par(STORE, PInp(TName("r"), (PPair("x", "y"),), NIL))
        txt = render_core(encode(p))
        assert "r!<a>. a <| rd. a?({x # y}). 0" in txt

    def test_anonymous_read_erases_identity(self):
        p = par(STORE, PInp(TName("r"), (PAnon("y"),), NIL))
        txt = render_core(encode(p))
        assert "<| rd" in txt and "# y}). 0" in txt

    def test_write_retry_loop(self):
        p = par(STORE, POut(TName("r"), (priv(Known("id"), "c2"),), NIL))
        txt = render_core(encode(p))
        assert "<| wr" in txt and "ok:" in txt and "fail:" in txt

    def test_channel_io_untouched(self):
        p = POut(TName("a"), (TConst("k"),), PInp(TName("a"), (PVar("v"),), NIL))
        assert encode(p) == p

    def test_dual_reference_rejected(self):
        p = POut(TDual("r"), (priv(Known("id"), "c"),), NIL)
        with pytest.raises(EncodingError):
            encode(p, refs=frozenset({"r"}))

    def test_uninitialized_store_rejected(self):
        from privcalc.kernel import IVar, DVar
        p = PStore("r", PrivateData(IVar("x"), DVar("y")))
        with pytest.raises(EncodingError):
            encode(p)

    def test_homomorphic_over_par_res_repl_if(self):
        reader = PInp(TName("r"), (PPair("x", "y"),), NIL)
        p = par(STORE, reader)
        enc = encode(p)
        assert isinstance(enc, Block) and not enc.binders
        assert alpha_eq(enc.comps[0], encode(STORE))
        assert alpha_eq(enc.comps[1], encode(reader, refs=frozenset({"r"})))
        q = PRepl(PIf("=", TConst("a"), TConst("a"), reader, NIL))
        enc_q = encode(q, refs=frozenset({"r"}))
        assert isinstance(enc_q, PRepl) and isinstance(enc_q.body, PIf)

    def test_fresh_name_hygiene(self):
        for p in gen.store_programs():
            assert free_names(encode(p)) == free_names(p)


class TestCoreStep:
    def test_label_synchronization(self):
        p = par(select(TName("a"), "rd", NIL),
                branch(TName("a"), {"rd": POut(TName("b"), (TConst("k"),), NIL),
                                    "wr": NIL}, "lbl"))
        succs = [core_canonical(s) for s in tau_successors(p)]
        assert len(succs) == 1
        assert succs[0] == core_canonical(POut(TName("b"), (TConst("k"),), NIL))

    def test_plain_communication(self):
        p = par(POut(TName("a"), (TConst("k"),), NIL),
                PInp(TName("a"), (PVar("x"),), POut(TName("b"), (TVarOr("x"),), NIL)))
        succs = tau_successors(p)
        assert len(succs) == 1

    def test_encoded_read_starts_with_handshake(self):
        p = par(STORE, PInp(TName("r"), (PPair("x", "y"),), NIL))
        enc = encode(p)
        firsts = tau_successors(enc)
        assert firsts  # the cell hand-off and the session handshake race
        assert all(isinstance(s, Block) for s in firsts)


def TVarOr(x):
    from privcalc.kernel import TVar
    return TVar(x)


class TestCorrespondence:
    def test_store_read_pair(self):
        p = par(STORE, PInp(TName("r"), (PPair("x", "y"),), NIL))
        report = check_correspondence(p, 12)
        assert report.ok and report.source_steps == 1

    def test_mismatched_write_reverts(self):
        p = par(STORE, POut(TName("r"), (priv(Known("other"), "c2"),), NIL))
        report = check_correspondence(p, 12)
        assert report.ok
        assert report.source_steps == 0
        assert "revert" in report.complete

    def test_nil_vacuous(self):
        report = check_correspondence(NIL, 4)
        assert report.ok and report.source_steps == 0

    def test_sample_programs(self):
        for p in gen.store_programs()[:6]:
            report = check_correspondence(p, 12)
            assert report.ok, (render_core(p), report.render())

    def test_each_encoded_state_expanded_once(self, monkeypatch):
        # no two expanded terms, the source and the raw encoded root among
        # them, are equal up to renaming their binders
        calls = []

        def counting(q):
            calls.append(_alpha_key(q))
            return tau_successors(q)

        monkeypatch.setattr(encoding, "tau_successors", counting)
        for p in gen.store_programs():
            calls.clear()
            check_correspondence(p, 12)
            assert calls and len(set(calls)) == len(calls), render_core(p)

    @pytest.mark.parametrize("bound", [1, 2, 3, 12])
    def test_shared_search_matches_independent_searches(self, bound):
        # bounds 1-3 cut most searches off, 12 lets them reach their targets
        def fields(r):
            return r.render(), r.sound, r.complete, r.failures, r.bound_exhausted

        programs = gen.store_programs()
        for p in programs if bound < 12 else programs[:8]:
            assert fields(check_correspondence(p, bound)) == fields(_independent_report(p, bound))

    def test_search_cut_off_needs_a_step(self):
        """The bound cuts a search off only when a state on its last
        frontier has a step: with 0 -> 1 -> 2, where 2 is a dead end and no
        target is met, the search has ended at bound 2 as at bound 3. A
        search whose start is a target ends uncut at every bound."""
        stepping = par(POut(TName("a"), (TName("b"),), NIL),
                       PInp(TName("a"), (PVar("x"),), NIL))
        states = {"0": ("0", stepping), "1": ("1", stepping), "2": ("2", NIL)}
        succ = {"0": ["1"], "1": ["2"], "2": []}

        def successors(state):
            return [states[k] for k in succ[state[0]]]

        def run(bound, target):
            met, depths, cut = search(states["0"], successors, bound, target.__eq__)
            return list(met), list(depths.values()), cut

        assert [run(bound, "9") for bound in (1, 2, 3)] == [
            (["0", "1"], [0, 1], True), (["0", "1", "2"], [0, 1, 2], False),
            (["0", "1", "2"], [0, 1, 2], False)]
        assert [run(bound, "0") for bound in (0, 1, 2, 3)] == [(["0"], [0], False)] * 4

    def test_search_renames_only_source_states(self, monkeypatch):
        """From fresh terms, checking the store programs at bound 12 renames
        canonically only the normal forms of the source's successors, where
        renaming every encoded state made 2,058 renamings. Evaluating
        conditionals and collecting inert servers visit at most 60,000 and
        30,000 nodes, where walking every encoded state visited 177,068
        and 174,066: a step walks only the components it made."""
        counts = {"rename": 0, "eval": 0, "gc": 0}

        def counted(name, real):
            def f(node):
                counts[name] += 1
                return real(node)
            return f

        monkeypatch.setattr(kernel, "_canonical_rename",
                            counted("rename", kernel._canonical_rename))
        monkeypatch.setattr(encoding, "_eval_ifs", counted("eval", encoding._eval_ifs))
        monkeypatch.setattr(encoding, "_gc_inert", counted("gc", encoding._gc_inert))
        source = 0
        for p in gen.store_programs():
            source += len(tau_successors(p))
            assert check_correspondence(p, 12).ok
        assert 0 < counts["rename"] <= source
        assert 0 < counts["eval"] <= 60_000
        assert 0 < counts["gc"] <= 30_000


def _independent_report(p, bound):
    """The correspondence check with a fresh BFS per search, each expanding
    its states anew: the reference for the shared successor map."""
    def search(start, targets):
        seen, frontier = {start}, [start]
        if start in targets:
            return targets.index(start), False
        for _ in range(bound):
            nxt = []
            for node in frontier:
                for c in map(core_canonical, tau_successors(node)):
                    if c not in seen:
                        seen.add(c)
                        if c in targets:
                            return targets.index(c), False
                        nxt.append(c)
            if not nxt:
                return None, False
            frontier = nxt
        return None, any(tau_successors(n) for n in frontier)

    refs = reference_names(p)
    uniq = []
    for s in map(normalize, tau_successors(p)):
        if not any(alpha_eq(s, u) for u in uniq):
            uniq.append(s)
    images = [core_canonical(encode(s, refs)) for s in uniq]
    root = encode(p, refs)
    report = CorrespondenceReport(source_steps=len(uniq))
    for s, image in zip(uniq, images):
        idx, cut = search(core_canonical(root), [image])
        desc = render_process(s)
        if idx is not None:
            report.sound.append(desc)
        elif cut:
            report.bound_exhausted.append(f"soundness: {desc}")
        else:
            report.failures.append(f"soundness: encoding never reaches [{desc}]")
    firsts = list(dict.fromkeys(map(core_canonical, tau_successors(root))))
    report.encoded_steps = len(firsts)
    for q in firsts:
        idx, cut = search(q, [core_canonical(root)] + images)
        if idx is not None:
            report.complete.append("revert" if idx == 0 else f"completes: {idx - 1}")
        elif cut:
            report.bound_exhausted.append("completeness: encoded step")
        else:
            report.failures.append("completeness: encoded step reaches neither the "
                                   "source image nor any successor image")
    return report


# The two-store shapes of the `correspond` benchmark: a store and a client
# on each of two references.
_TWO_STORES = [
    "store rA {iA # cA} | store rB {iB # cB} | " + client + " | rB?(xb # yb). 0"
    for client in ("rA?(xa # ya). 0", "rA!<{iA # dA}>. 0", "rA!<{bad # dA}>. 0",
                   "rA?(xa # ya). rA?(xa2 # ya2). 0")
]


def _correspondence_programs():
    texts = [parse_process(t) for t in _TWO_STORES]
    assert all(res.ok for res in texts)
    return gen.store_programs() + [res.value for res in texts]


def _encoded_states(p, bound):
    """The encoded root of `p` and the successors of every core form
    within `bound` steps of it, each core form expanded once, as raw terms
    and with their search states (`encoding._state`)."""
    root = encode(p)
    out = [(root, _state(root))]
    seen: set[str] = set()
    frontier = [out[0][1]]
    for _ in range(bound):
        nxt = []
        for key, form in frontier:
            if key not in seen:
                seen.add(key)
                for q in tau_successors(form):
                    st = _state(q)
                    out.append((q, st))
                    nxt.append(st)
        frontier = nxt
    return out


def test_keys_partition_as_canonical_forms():
    """Two encoded states have one key exactly when their canonical forms,
    computed by renaming the whole state canonically, are equal; on every
    state the correspondence check reaches at bound 12."""
    canon_of: dict = {}
    key_of: dict = {}
    count = 0
    for p in _correspondence_programs():
        for q, (key, _) in _encoded_states(p, 12):
            canon = kernel_oracles.core_canonical(q)
            assert canon_of.setdefault(key, canon) == canon, render_core(q)
            assert key_of.setdefault(canon, key) == key, render_core(q)
            count += 1
    assert count > 3000 and len(key_of) > 1000


class TestAlphaKey:
    def test_free_name_spelt_as_a_position(self):
        # `ν0` is an identifier; the sort key writes the bound `a` as `ν0`
        # too, and must keep doing so
        texts = ["(new a) (a!<k>. 0 | ν0!<k>. 0)", "(new a) (a!<k>. 0 | a!<k>. 0)"]
        p, q = (parse_process(t).value for t in texts)
        assert normalize(p) != normalize(q)
        assert _erased_key(p, {}, {}) == _erased_key(q, {}, {})
        assert _alpha_key(p) != _alpha_key(q)

    def test_input_annotations(self):
        t = TPrivate("t", "g")
        bare = PInp(TName("a"), (PVar("x"),), NIL)
        typed = PInp(TName("a"), (PVar("x"),), NIL, (t,))
        assert bare != typed and _erased_key(bare, {}, {}) == _erased_key(typed, {}, {})
        assert _alpha_key(bare) != _alpha_key(typed)
        # a private type and a purpose print alike as restriction annotations
        out = POut(TName("c"), (TConst("k"),), NIL)
        blocks = [Block((("c", TChan("G", (ty("t", "g"),))),), (out,))
                  for ty in (TPrivate, TPurpose)]
        assert blocks[0] != blocks[1]
        assert len({_erased_key(b, {}, {}) for b in blocks}) == 1
        assert len({_alpha_key(b) for b in blocks}) == 2


class _RandomBinders:
    """A fresh-name source for `kernel._rewrite` that renames every binder
    to a random name, apart from every token of the term and from each
    other, so the renaming captures nothing. The names look like the key's
    own positions and like canonical names."""

    def __init__(self, rng, taken):
        self.rng = rng
        self.taken = set(taken)

    def __call__(self, kind: str) -> str:
        while True:
            n = self.rng.choice(["ν", "β", "_n", "_x", "a", "x'"]) + str(self.rng.randrange(30))
            if n not in self.taken:
                self.taken.add(n)
                return n

    def component(self, c, names: dict, vs: dict):
        return kernel._rewrite(c, names, vs, self)


_PROGRAMS = gen.store_programs()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_PROGRAMS), st.lists(st.integers(0, 99), max_size=6),
       st.integers(0, 2**32))
def test_key_blind_to_binder_names(program, path, seed):
    # an encoded state a few random steps from the root, and its core form
    rng = random.Random(seed)
    q = encode(program)
    for i in path:
        succs = tau_successors(q)
        if not succs:
            break
        q = succs[i % len(succs)]
    for term in (q, _core_form(q)):
        renamed = kernel._rewrite(term, {}, {}, _RandomBinders(rng, encoding._all_atoms(term)))
        assert alpha_eq(renamed, term)
        assert _alpha_key(renamed) == _alpha_key(term)
    assert _state(kernel._rewrite(q, {}, {}, _RandomBinders(rng, encoding._all_atoms(q))))[0] \
        == _state(q)[0]


class TestCoreCanonical:
    @pytest.mark.parametrize("text", [
        # each server only feeds the next; none can ever be called, but the
        # binders' sorted order hides the chain from an innermost-first scan
        "(new a0)(new a1)(new a2)(new a3)(*a0?(x). a1!<u>. 0 | "
        "*a1?(x). a2!<u>. 0 | *a2?(x). a3!<u>. 0 | *a3?(x). 0 | c!<u>. 0)",
        # collecting the inner dead server leaves a server on a, whose
        # replication still sits under the now unused restriction of b
        "(new a)(*(new b)(a?(x). 0 | *b?(y). 0) | c!<u>. 0)",
    ])
    def test_dead_servers_are_collected(self, text):
        dead = parse_process(text)
        alone = parse_process("c!<u>. 0")
        assert dead.ok and alone.ok
        assert core_canonical(dead.value) == core_canonical(alone.value)

    def test_open_branches_are_returned_unchanged(self):
        # the store server's label dispatch tests a received variable, so
        # no conditional of the canonical encoded store can be resolved
        q = core_canonical(encode(STORE))
        assert "|> { rd:" in render_core(q)
        assert _eval_ifs(q) is q

    def test_idempotent_on_encoded_states(self):
        # and equal to the canonical form of the whole state, computed
        # without the marks on core forms
        for p in gen.store_programs():
            frontier = [encode(p)]
            seen = set()
            for _ in range(6):
                nxt = []
                for q in frontier:
                    c = core_canonical(q)
                    assert core_canonical(c) == c, render_core(q)
                    assert kernel_oracles.core_canonical(q) == c, render_core(q)
                    if c not in seen:
                        seen.add(c)
                        nxt.extend(tau_successors(q))
                frontier = nxt


# A process whose prefix chain is about as deep as the parser accepts (it
# rejects depth 495 from a fresh thread).
_CHAIN = "c!<k>. " * 490 + "0 | c?(v). 0"

# The stages, in the order a run over one term takes them.
_PIPELINE = {
    "render_process": render_process,
    "normalize": normalize,
    "tau_successors": tau_successors,
    "encode": encode,
    "render_core": lambda p: render_core(encode(p)),
    "core_canonical": lambda p: core_canonical(encode(p)),
    "check_correspondence": lambda p: check_correspondence(p, 2),
}


def _in_fresh_thread(f):
    # a new thread starts with an empty stack, as a command-line run does
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(f).result(timeout=120)


@pytest.mark.parametrize("last", [
    "render_process", "normalize", "tau_successors", "encode", "render_core",
    "core_canonical", "check_correspondence",
])
def test_deep_prefix_chain(last):
    # Every stage up to `last`, in order, on one parsed chain and sharing
    # what is kept on it. `encode` and `_eval_ifs` return a chain with
    # nothing to change as itself, so `core_canonical` reads the normal form
    # kept on it, where an equal copy would be normalized again and
    # compared with the kept normal form level by level.
    def run():
        res = parse_process(_CHAIN)
        assert res.ok, res.diagnostics
        for name, stage in _PIPELINE.items():
            stage(res.value)
            if name == last:
                return

    _in_fresh_thread(run)


def test_deep_prefix_chain_parsed_twice():
    # A parsed chain ends in the shared `NIL`, so it is its own normal form.
    # Two separate parses are equal but not the same object, and no table
    # keeps normal forms to compare them with.
    def run():
        a, b = (parse_process("c!<k>. " * 330 + "0").value for _ in range(2))
        normalize(a)
        normalize(b)

    _in_fresh_thread(run)


def test_deep_prefix_chain_in_block_parsed_twice():
    # As a block component, each parse's chain keeps its normal form on
    # itself, so the second parse's is never compared with the first's:
    # `Record.__eq__` spends three units of the recursion limit per level.
    def run():
        a, b = (parse_process("d?(x). 0 | " + "c!<k>. " * 330 + "0").value
                for _ in range(2))
        normalize(a)
        normalize(b)

    _in_fresh_thread(run)


@pytest.mark.parametrize("walker", [encode, encoding._eval_ifs, encoding._gc_inert],
                         ids=["encode", "_eval_ifs", "_gc_inert"])
def test_walkers_spend_one_frame_per_level(walker):
    # 490 levels within a budget of 540 frames; a walker that spent a
    # helper's frame per level as well would need about 980. With nothing
    # to change, each hands back the chain itself.
    def run():
        p = parse_process(_CHAIN).value
        # the node's kept hash and free atoms, computed first: they are not
        # the walk being measured
        hash(p)
        free_names(p)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(540)
        try:
            return walker(p) is p
        finally:
            sys.setrecursionlimit(limit)

    assert _in_fresh_thread(run)
