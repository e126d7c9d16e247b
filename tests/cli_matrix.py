"""The command-line byte matrix: 104 `privcalc` calls whose output pins
the checker's verdicts, state names, edge order and reports.

- on each of the six corpus inputs: `simulate --depth 6` and `--depth 10`,
  `simulate --depth 6 --preserve` and `--depth 8 --preserve`, `scan
  --depth 4/6/8` and `errors`, each in text and `--format records`;
- `simulate --depth 100000000` on hospital and both ETPs, whose state
  spaces are finite;
- `encode --correspondence 12` on each of the 26 store programs
  (`gen.store_programs`, written out with `render_process`);
- `verify` with a malformed environment, policy and system.

`tests/test_transcripts.py` runs the matrix in process and compares each
call that has a golden file with it. Run as a script, it compares two
source trees call by call, each call in a fresh interpreter:

    PYTHONPATH=src:tests python tests/cli_matrix.py OLD_TREE NEW_TREE

prints every call whose exit code, standard output or standard error
differs, and exits 1 if any does.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import gen
from privcalc import cli
from privcalc.syntax import render_process

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

# the six corpus inputs and the environment and policy each is read with
INPUTS = {"hospital": "hospital", "etp_central": "etp_central",
          "etp_decentral": "etp_decentral", "speedlimit": "speedlimit",
          "lab": "hospital", "hospital_nurse_read": "hospital"}

# the calls with a golden file, by the file's name in `corpus/golden`
GOLDENS = {
    **{f"{name}.simulate6": f"{name}.simulate-6" for name in INPUTS},
    **{f"{name}.preserve8": f"{name}.simulate-8-preserve" for name in INPUTS},
    **{f"{name}.{g}{suffix}": f"{name}.{cmd}-{fmt}"
       for name in INPUTS
       for g, cmd in (("scan8", "scan-8"), ("errors", "errors"))
       for suffix, fmt in (("", "text"), (".records", "records"))},
}


def calls(work: pathlib.Path) -> dict[str, list[str]]:
    """Every call of the matrix, by name, as its argv after `privcalc`.
    The store programs and the malformed inputs are written to `work`."""
    out: dict[str, list[str]] = {}
    for name, case in INPUTS.items():
        pc, env, ppo = (str(CORPUS / f) for f in (f"{name}.pc", f"{case}.env", f"{case}.ppo"))
        for depth in ("6", "10"):
            out[f"{name}.simulate-{depth}"] = ["simulate", pc, "--env", env, "--depth", depth]
        for depth in ("6", "8"):
            out[f"{name}.simulate-{depth}-preserve"] = [
                "simulate", pc, "--env", env, "--depth", depth, "--preserve"]
        for fmt in ("text", "records"):
            for depth in ("4", "6", "8"):
                out[f"{name}.scan-{depth}-{fmt}"] = [
                    "scan", pc, "--env", env, "--policy", ppo, "--depth", depth,
                    "--format", fmt]
            out[f"{name}.errors-{fmt}"] = ["errors", pc, "--env", env, "--policy", ppo,
                                           "--format", fmt]
    for name in ("hospital", "etp_central", "etp_decentral"):
        out[f"{name}.simulate-unbounded"] = [
            "simulate", str(CORPUS / f"{name}.pc"), "--env", str(CORPUS / f"{name}.env"),
            "--depth", "100000000"]
    for k, p in enumerate(gen.store_programs()):
        src = work / f"store{k:02}.pc"
        src.write_text(render_process(p) + "\n")
        out[f"store{k:02}.correspondence-12"] = ["encode", str(src), "--correspondence", "12"]
    bad = {"env": "a : G[\n", "ppo": "private t >> {\n", "pc": "G[ a!<k>. ]\n"}
    for ext, text in bad.items():
        (work / f"bad.{ext}").write_text(text)
    good = {"env": CORPUS / "hospital.env", "ppo": CORPUS / "hospital.ppo",
            "pc": CORPUS / "hospital.pc"}
    for ext in bad:
        files = {e: str(work / f"bad.{e}") if e == ext else str(good[e]) for e in good}
        out[f"verify-bad-{ext}"] = ["verify", files["pc"], "--env", files["env"],
                                    "--policy", files["ppo"]]
    return out


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one call of
    `cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_tree(tree: pathlib.Path, matrix: dict[str, list[str]]) -> dict:
    """Exit code, standard output and standard error (bytes) of each call,
    run with the `privcalc` of the source tree `tree`, each in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PRIVCALC_COLOR="never",
               PYTHONHASHSEED="0")
    results = {}
    for name, argv in matrix.items():
        done = subprocess.run([sys.executable, "-m", "privcalc.cli", *argv], env=env,
                              capture_output=True, timeout=600)
        results[name] = (done.returncode, done.stdout, done.stderr)
    return results


def main(argv: list[str]) -> int:
    import tempfile
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        matrix = calls(pathlib.Path(work))
        old, new = (run_tree(pathlib.Path(tree).resolve(), matrix) for tree in argv)
    differ = [name for name in matrix if old[name] != new[name]]
    for name in differ:
        print(f"differs: {name} (exit {old[name][0]} -> {new[name][0]})")
    print(f"{len(matrix) - len(differ)} of {len(matrix)} calls byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
