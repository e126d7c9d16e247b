"""A catalogue of mutants: small deliberate faults in `src/privcalc`, each
with the tests that must catch it.

A mutant names its module, an exact source fragment, the text that
replaces it and the ids of the tests that must fail on the changed tree
(an id without a `[...]` parameter stands for all of its parameters, of
which one failing is enough). A mutant whose code is gone stays listed
with `retired` set to the reason. `tests/test_mutants.py` checks, without
running anything, that each live fragment occurs exactly once in its
module. Run as a script,

    python tests/mutants.py [NAME ...]

copies `src`, `tests`, `corpus` and `pyproject.toml` into a temporary
directory for each mutant, applies it there, runs its tests with pytest
and prints one line per mutant: killed (every listed test fails),
survived (the line names the listed tests that pass) or stale (the
fragment does not occur exactly once), or broken if pytest could not run
them. It exits 1 if any mutant is not killed or retired.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "privcalc"


class Mutant(NamedTuple):
    name: str
    module: str  # a module of `src/privcalc`, without `.py`
    fragment: str
    replacement: str
    kills: tuple[str, ...]  # test ids that must fail, as pytest prints them
    retired: Optional[str] = None  # why the mutant no longer applies


_ENCODING = "tests/test_encoding.py::"
_SYNTAX = "tests/test_syntax.py::"
_SEMANTICS = "tests/test_semantics.py::"
_TYPESYS = "tests/test_typesys.py::"
_STEP_FACTS = tuple(f"{_SEMANTICS}test_kept_step_facts_match_cold_ones[{source}]"
                    for source in ("corpus", "seeds", "store_programs"))
_ORDER_FREE = (f"{_TYPESYS}test_binder_order_does_not_decide_typing",
               f"{_TYPESYS}test_one_walk_matches_the_two_walkers")

MUTANTS = [
    # -- the lexer --------------------------------------------------------------------
    Mutant("separator_blank_check_dropped", "syntax",
           '        if not "".join(pieces[::2]).translate(_DROP_BLANKS):\n',
           "        if True:\n",
           (f"{_SYNTAX}test_lexer_matches_oracle",
            f"{_SYNTAX}test_lexer_is_linear_in_a_long_token",
            f"{_SYNTAX}test_diagnostics_golden")),
    Mutant("comment_blanked_one_character_short", "syntax",
           '    return " " * len(comment[0])\n',
           '    return " " * (len(comment[0]) - 1)\n',
           (f"{_SYNTAX}test_lexer_matches_oracle",)),
    Mutant("line_starts_off_by_one", "syntax",
           "    return [0, *(m.end() for m in _NEWLINE.finditer(text))]\n",
           "    return [0, *(m.start() for m in _NEWLINE.finditer(text))]\n",
           (f"{_SYNTAX}test_lexer_matches_oracle",
            f"{_SYNTAX}TestParseSystem::test_input_power_error_at_its_subject")),
    # -- the encoder ------------------------------------------------------------------
    Mutant("fresh_names_avoid_free_atoms_only", "encoding",
           "    fresh = _Fresh(_all_atoms(p))\n",
           "    fresh = _Fresh(free_atoms(p))\n",
           (f"{_ENCODING}TestEncode::test_fresh_names_avoid_source_tokens",)),
    Mutant("source_steps_told_apart_by_equality", "encoding",
           "    steps: dict[str, Process] = {}\n"
           "    for s in map(normalize, tau_successors(p)):\n"
           "        steps.setdefault(_alpha_key(s), s)\n",
           "    steps = {s: s for s in map(normalize, tau_successors(p))}\n",
           tuple(f"tests/test_cli.py::TestExitCodes::test_every_command_on_equal_deep_chains[{i}]"
                 for i in ("encode", "encode_400"))),
    # -- facts kept on the node -------------------------------------------------------
    Mutant("feed_keyed_without_to_dual", "semantics",
           "    delivery = (subject, to_dual, values)\n",
           "    delivery = (subject, values)\n",
           _STEP_FACTS),
    Mutant("pair_appends_to_a_kept_feed_list", "semantics",
           "        for j in receivers:\n"
           "            for osucc in feed(cs[j], subject, to_dual, values):\n",
           "        for j in receivers:\n"
           "            feed(cs[j], subject, to_dual, values).append(cs[j])\n"
           "            for osucc in feed(cs[j], subject, to_dual, values):\n",
           _STEP_FACTS),
    Mutant("component_form_read_without_its_holes", "kernel",
           "    if kept is not None and kept[0] == holes:\n",
           "    if kept is not None:\n",
           ("tests/test_kernel.py::TestNormalize::test_component_memo_tells_bound_atoms_from_free",)),
    Mutant("sort_key_read_without_its_classification", "kernel",
           "        if kept is not None and kept[0] == classes:\n",
           "        if kept is not None:\n",
           (f"{_SEMANTICS}test_kept_sort_keys_match_cold_keys[corpus]",
            f"{_SEMANTICS}test_kept_sort_key_needs_the_same_classification")),
    Mutant("sibling_class_key_not_exact", "semantics",
           "            if seen is None:\n"
           "                seen = {_alpha_key(cs[first])}\n"
           "            key = _alpha_key(cs[k])\n",
           "            from .kernel import _erased_key\n"
           "            if seen is None:\n"
           "                seen = {_erased_key(cs[first], {}, {})}\n"
           "            key = _erased_key(cs[k], {}, {})\n",
           (f"{_SEMANTICS}test_congruent_siblings_step_once"
            "[grouped_readers_differ_in_an_input_annotation]",)),
    Mutant("pair_class_key_not_exact", "semantics",
           "        return tried.setdefault((_alpha_key(cs[i]), _alpha_key(cs[j])), (i, j)) == (i, j)\n",
           "        from .kernel import _erased_key\n"
           "        return tried.setdefault((_erased_key(cs[i], {}, {}), _erased_key(cs[j], {}, {})),\n"
           "                                (i, j)) == (i, j)\n",
           (f"{_SEMANTICS}test_congruent_siblings_step_once"
            "[readers_differ_in_an_input_annotation]",)),
    Mutant("group_step_carries_the_step_facts", "semantics",
           "            return ((body, lambda s: replace(node, body=s)),)\n",
           "            return ((body, lambda s: (lambda r: [\n"
           "                _setattr(r, f, getattr(node, f)) for f in ('_outs', '_ins', '_refs')]\n"
           "                and r)(replace(node, body=s))),)\n",
           _STEP_FACTS[:2]),
    Mutant("group_step_carries_the_references", "semantics",
           "            return ((body, lambda s: replace(node, body=s)),)\n",
           "            return ((body, lambda s: (lambda r: [_setattr(r, '_refs', node._refs)]\n"
           "                and r)(replace(node, body=s))),)\n",
           (f"{_SEMANTICS}test_successors_keep_facts_of_their_own[store_dropped]",)),
    # -- the typing walk -------------------------------------------------------------
    Mutant("theta_joined_right_to_left", "typesys",
           "                    lt.theta.concat(rt.theta))\n",
           "                    rt.theta.concat(lt.theta))\n",
           _ORDER_FREE[1:]),
    Mutant("aggregation_term_dropped", "typesys",
           "lt.delta.uplus(rt.delta).uplus(agg)",
           "lt.delta.uplus(rt.delta)",
           _ORDER_FREE[1:]),
    # -- restriction inference --------------------------------------------------------
    Mutant("scope_binder_typed_within_its_round", "typesys",
           "                    found[key] = candidates.pop()\n",
           "                    found[key] = types[key] = candidates.pop()\n",
           _ORDER_FREE[:1]),
    Mutant("scope_walk_skips_nested_blocks", "typesys",
           "            if type(c) is Block:\n                scope(c, env)\n",
           "            if False:\n                scope(c, env)\n",
           (*_ORDER_FREE, f"{_TYPESYS}test_restriction_order_does_not_decide_typing",
            f"{_TYPESYS}TestTypeProcess::test_restriction_inference_reads_no_subject_bound_in_scope")),
    # the next three type the same way in every binder order, so only the
    # oracle's own inference catches them
    Mutant("scope_bound_subject_gives_no_candidate", "typesys",
           "                    sty = types.get(subject) if type(subject) is tuple else subject\n",
           "                    sty = None if type(subject) is tuple else subject\n",
           (*_ORDER_FREE, f"{_TYPESYS}test_restriction_order_does_not_decide_typing")),
    Mutant("input_bound_name_reads_gamma", "typesys",
           "                bound = [v for k in pats for v in placeholder_vars(k)]\n",
           "                bound = ()\n",
           (_ORDER_FREE[1],
            f"{_TYPESYS}TestTypeProcess::test_restriction_inference_reads_no_subject_bound_in_scope")),
    Mutant("least_of_several_candidates", "typesys",
           "                if len(candidates) == 1:\n"
           "                    found[key] = candidates.pop()\n",
           "                if candidates:\n"
           "                    found[key] = min(candidates, key=str)\n",
           _ORDER_FREE),
]


def source(m: Mutant) -> str:
    return (PACKAGE / f"{m.module}.py").read_text()


def _failed(ids: list[str], report: str) -> set[str]:
    """The ids of `ids` under which pytest's `-rfE` summary lists a failure
    or an error."""
    lines = [line.split(" ", 1)[1] for line in report.splitlines()
             if line.startswith(("FAILED ", "ERROR "))]
    return {i for i in ids
            if any(line == i or line.startswith((i + " ", i + "[")) for line in lines)}


def run(m: Mutant) -> str:
    """The outcome of one mutant, as the line the script prints."""
    if m.retired:
        return f"retired    {m.name}: {m.retired}"
    if source(m).count(m.fragment) != 1:
        return f"stale      {m.name}: the fragment does not occur once in {m.module}.py"
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for part in ("src", "tests", "corpus"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "privcalc" / f"{m.module}.py"
        target.write_text(source(m).replace(m.fragment, m.replacement))
        r = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
             "-p", "no:cacheprovider", *m.kills],
            cwd=work, capture_output=True, text=True,
            env={"PYTHONPATH": str(work / "src"), "PATH": "/usr/bin:/bin"})
    if r.returncode not in (0, 1):
        return f"broken     {m.name}: pytest exited {r.returncode}"
    alive = [i for i in m.kills if i not in _failed(list(m.kills), r.stdout)]
    if alive:
        return f"survived   {m.name}: passes " + ", ".join(alive)
    return f"killed     {m.name}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: " + ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    bad = 0
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        line = run(m)
        bad += not line.startswith(("killed", "retired"))
        print(line, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
