import ast
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from conftest import CORPUS
from privcalc import cli

PKG = str(CORPUS.parent / "src")


def run(*args, color="never"):
    return subprocess.run(
        [sys.executable, "-m", "privcalc.cli", *args],
        capture_output=True, text=True,
        env={"PYTHONPATH": PKG, "PRIVCALC_COLOR": color, "PATH": "/usr/bin:/bin"},
        cwd=str(CORPUS.parent))


class TestExitCodes:
    def test_verify_satisfied(self):
        r = run("verify", "corpus/hospital.pc", "--policy", "corpus/hospital.ppo",
                "--env", "corpus/hospital.env")
        assert r.returncode == 0 and "satisfied" in r.stdout

    def test_verify_violation(self):
        r = run("verify", "corpus/hospital_nurse_read.pc",
                "--policy", "corpus/hospital.ppo", "--env", "corpus/hospital.env")
        assert r.returncode == 1
        assert "read" in r.stdout and "Nurse" in r.stdout

    def test_policy_wf_ok(self):
        for name in ("hospital", "etp_central", "etp_decentral", "speedlimit"):
            r = run("policy-wf", f"corpus/{name}.ppo")
            assert r.returncode == 0

    def test_policy_wf_cycle(self, tmp_path):
        bad = tmp_path / "cyc.ppo"
        bad.write_text("private t >> G {} [ G {} ];")
        r = run("policy-wf", str(bad))
        assert r.returncode == 1 and "condition 2" in r.stdout

    def test_usage_error(self):
        r = run("frobnicate")
        assert r.returncode == 2

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.pc"
        bad.write_text("G[ a!< ]")
        r = run("typecheck", str(bad))
        assert r.returncode == 2

    @pytest.mark.parametrize("bad, text, lines", [
        ("system", "G[ a!< ]", ["1:8-1:9: expected term, found ']'"]),
        ("policy", "private t >> G { read [ ;", ["1:23-1:24: expected '}', found '['"]),
        ("env", "a : G[t<g>]\na : G[t<g>]\nb : G[t<g>]\nb : G[t<g>]\n",
         ["2:1-2:2: duplicate entry a", "4:1-4:2: duplicate entry b"]),
    ])
    def test_parse_diagnostics_name_their_file(self, tmp_path, bad, text, lines):
        # each diagnostic was printed as `error: error: <span>: ...` on the
        # first line and `error: <span>: ...` after it, with no file name
        paths = {"system": "corpus/hospital.pc", "policy": "corpus/hospital.ppo",
                 "env": "corpus/hospital.env"}
        paths[bad] = str(tmp_path / f"bad.{bad}")
        pathlib.Path(paths[bad]).write_text(text)
        r = run("verify", paths["system"], "--policy", paths["policy"],
                "--env", paths["env"])
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "".join(f"error: {paths[bad]}: {line}\n" for line in lines)

    def test_scan_clean(self):
        r = run("scan", "corpus/etp_central.pc", "--policy", "corpus/etp_central.ppo",
                "--env", "corpus/etp_central.env", "--depth", "4")
        assert r.returncode == 0 and "ok" in r.stdout

    def test_errors_finding(self):
        r = run("errors", "corpus/hospital_nurse_read.pc",
                "--policy", "corpus/hospital.ppo", "--env", "corpus/hospital.env")
        assert r.returncode == 1

    def test_internal_error(self, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.COMMANDS["typecheck"], "run", crash)
        assert cli.main(["typecheck", "corpus/lab.pc"]) == cli.EXIT_INTERNAL == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_closed_stdout_is_not_an_internal_error(self):
        # a reader that has gone away, as `privcalc scan ... | head -1`
        # leaves it: exit 141 (128 + SIGPIPE), not 3
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "privcalc.cli", "scan",
                 "corpus/hospital_nurse_read.pc", "--policy", "corpus/hospital.ppo",
                 "--env", "corpus/hospital.env", "--depth", "4"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={"PYTHONPATH": PKG, "PATH": "/usr/bin:/bin"}, cwd=str(CORPUS.parent))
        finally:
            os.close(write_end)
        assert (r.returncode, r.stderr) == (cli.EXIT_PIPE, "") and cli.EXIT_PIPE == 141

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_file_is_an_input_error(self, tmp_path, capsys, kind):
        # a directory and a file that is not UTF-8 were internal errors (exit 3)
        path = tmp_path / "in.pc"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"G[ a!<\xff>. 0 ]")
        assert cli.main(["typecheck", str(path)]) == cli.EXIT_ERROR == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("args", [
        ("simulate", "corpus/hospital.pc", "--depth", "-2"),
        ("scan", "corpus/hospital.pc", "--policy", "corpus/hospital.ppo", "--depth", "-1"),
        ("encode", "STORE", "--correspondence", "-1"),
        ("simulate", "corpus/hospital.pc", "--depth", "two"),
    ])
    def test_negative_bound_is_a_usage_error(self, tmp_path, args):
        # without the check, simulate printed a truncated graph and exit 0,
        # and encode reported the store program as inconclusive (exit 1)
        store = tmp_path / "st.pc"
        store.write_text("store r {id # c} | r?(x # y). 0")
        args = [str(store) if a == "STORE" else a for a in args]
        r = run(*args, "--env", "corpus/hospital.env")
        assert r.returncode == 2 and r.stdout == ""
        assert f"expected an integer of 0 or more, got '{args[-1]}'" in r.stderr

    def test_depth_zero_is_a_bound(self):
        r = run("simulate", "corpus/hospital.pc", "--env", "corpus/hospital.env",
                "--depth", "0")
        assert r.returncode == 0
        assert r.stdout.endswith("states 1 edges 0 truncated\n")

    @pytest.mark.parametrize("depth", [340, 480])
    def test_equal_deep_chains_in_two_groups(self, tmp_path, depth):
        # the same output chain in two groups, as deep as the deepest `wide`
        # input: comparing the second with the first overflowed the stack
        # (exit 3) while a table of normalized components was kept
        chain = "c!<k>. " * depth + "0 | c?(v). 0"
        path = tmp_path / "twins.pc"
        path.write_text(f"G[ {chain} ] || H[ {chain} ]\n")
        r = run("simulate", str(path), "--depth", "2")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.endswith("states 8 edges 12\n")

    def test_encode_process(self, tmp_path):
        f = tmp_path / "st.pc"
        f.write_text("store r {id # c} | r?(x # y). 0")
        r = run("encode", str(f))
        assert r.returncode == 0 and "<| rd" in r.stdout


class TestDeterminism:
    @pytest.mark.parametrize("name", ["hospital", "etp_central",
                                      "etp_decentral", "speedlimit"])
    def test_typecheck_byte_identical(self, name):
        a = run("typecheck", f"corpus/{name}.pc", "--env", f"corpus/{name}.env")
        b = run("typecheck", f"corpus/{name}.pc", "--env", f"corpus/{name}.env")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_verify_records_stable(self):
        args = ("verify", "corpus/hospital_nurse_read.pc", "--policy",
                "corpus/hospital.ppo", "--env", "corpus/hospital.env",
                "--format", "records")
        assert run(*args).stdout == run(*args).stdout

    def test_simulate_records_stable(self):
        args = ("simulate", "corpus/speedlimit.pc", "--env",
                "corpus/speedlimit.env", "--depth", "3")
        assert run(*args).stdout == run(*args).stdout

    def test_dot_output(self):
        r = run("simulate", "corpus/etp_central.pc", "--env",
                "corpus/etp_central.env", "--depth", "2", "--format", "dot")
        assert r.returncode == 0 and r.stdout.startswith("digraph")

    @pytest.mark.parametrize("source, env, code, report", [
        ("corpus/speedlimit.pc", "speedlimit", 0, "preservation: ok"),
        ("BARE", "hospital", 1, "preservation: VIOLATIONS")])
    def test_dot_with_preserve_is_one_dot_file(self, tmp_path, source, env, code, report):
        # the preservation report was printed after the graph's closing `}`
        bare = tmp_path / "bare.pc"
        bare.write_text("(new q) (b!<r1>. 0 | b?(w). w?(x # y). 0)\n")
        r = run("simulate", str(bare) if source == "BARE" else source, "--env",
                f"corpus/{env}.env", "--depth", "3", "--format", "dot", "--preserve")
        assert r.returncode == code
        assert r.stdout.startswith("digraph") and r.stdout.endswith("\n}\n")
        assert r.stderr.startswith(report)


def test_id_direction_flag_flips_identify():
    a = run("typecheck", "corpus/lab.pc", "--env", "corpus/hospital.env")
    b = run("typecheck", "corpus/lab.pc", "--env", "corpus/hospital.env",
            "--id-direction", "known")
    assert "type=crime" in a.stdout and "identify patient_data" in a.stdout
    assert "identify crime" in b.stdout


def test_strict_coverage_flag():
    r = run("verify", "corpus/etp_central.pc", "--policy", "corpus/etp_central.ppo",
            "--env", "corpus/etp_central.env", "--strict-coverage")
    assert r.returncode == 1 and "fee" in r.stdout


# The one option of the command table that its handler does not read:
# `scan` prints its text form for `--format records` as well, because the
# benchmark's `reach` scan jobs pass `--format records` and check that text.
UNREAD = {("scan", "format")}

# a corpus input for each command with a `--format` option
_NURSE = [str(CORPUS / "hospital_nurse_read.pc"), "--policy", str(CORPUS / "hospital.ppo"),
          "--env", str(CORPUS / "hospital.env")]
FORMAT_INPUTS = {"verify": _NURSE, "errors": _NURSE, "scan": [*_NURSE, "--depth", "4"],
                 "simulate": [str(CORPUS / "speedlimit.pc"), "--env",
                              str(CORPUS / "speedlimit.env"), "--depth", "3"]}


def _handler_reads() -> dict[str, set[str]]:
    """The attributes each handler of `cli.py` reads from its argument."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    reads = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
            arg = fn.args.args[0].arg
            reads[fn.name] = {node.attr for node in ast.walk(fn)
                              if isinstance(node, ast.Attribute)
                              and isinstance(node.value, ast.Name) and node.value.id == arg}
    return reads


def test_each_command_has_only_the_options_its_handler_reads():
    """The `args.<name>` attributes a handler reads are exactly its row's
    positional and option destinations: an option no handler reads was
    accepted and did nothing."""
    reads = _handler_reads()
    for name, command in cli.COMMANDS.items():
        given = {command.positional, *(cli._dest(o[0]) for o in command.options)}
        unread = {dest for n, dest in UNREAD if n == name}
        assert reads[command.run.__name__] == given - unread, name


FORMATS = [(name, form) for name, command in cli.COMMANDS.items()
           for string, _, choices, _ in command.options if string == "--format"
           for form in choices if form != "text"]


@pytest.mark.parametrize("name, form", FORMATS)
def test_each_output_form_prints_its_own_output(name, form, capsys):
    """Every `--format` value but `text` changes standard output: a choice
    that printed another form's output was accepted and did nothing."""
    argv = [name, *FORMAT_INPUTS[name]]
    outs = []
    for fmt in ("text", form):
        cli.main([*argv, "--format", fmt])
        outs.append(capsys.readouterr().out)
    # the exception holds only while it prints the same: a record form ends it
    assert (outs[0] == outs[1]) == ((name, "format") in UNREAD)


def test_color_env_toggle():
    r = run("verify", "corpus/hospital.pc", "--policy", "corpus/hospital.ppo",
            "--env", "corpus/hospital.env", color="always")
    assert "\x1b[32m" in r.stdout
    r2 = run("verify", "corpus/hospital.pc", "--policy", "corpus/hospital.ppo",
             "--env", "corpus/hospital.env", color="never")
    assert "\x1b[" not in r2.stdout


def test_import_budget():
    """Every command pays for `import privcalc` before it checks anything.
    The import loads every submodule eagerly, and none of the standard
    modules that generate or inspect source (`dataclasses` loads the other
    three)."""
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, privcalc, privcalc.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env={"PYTHONPATH": PKG, "PATH": "/usr/bin:/bin"},
        cwd=str(CORPUS.parent))
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
    assert {f"privcalc.{m}" for m in (
        "cli", "encoding", "kernel", "policy", "safety", "satisfaction",
        "semantics", "syntax", "typesys")} <= loaded


# the interpreter's own SHA-256 module, which `state_key` hashes with
SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


def test_import_loads_only_the_package():
    """Once the standard modules the package names are loaded, `import
    privcalc` in a fresh interpreter without `site` adds only the package's
    own modules: a module it pulled in besides would be paid for by every
    command-line call. `hashlib`, which loads OpenSSL, is not among them."""
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {PKG!r})",
        f"import __future__, bisect, itertools, operator, re, typing, {SHA256}",
        "before = set(sys.modules)",
        "import privcalc",
        "print(' '.join(sorted(set(sys.modules) - before)))",
        "print(' '.join(sorted({'hashlib', '_hashlib'} & set(sys.modules))))",
    ])
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={"PATH": "/usr/bin:/bin"}, cwd=str(CORPUS.parent))
    assert r.returncode == 0, r.stderr
    added, hashing = r.stdout.split("\n")[:2]
    assert "privcalc.syntax" in added.split()
    assert [m for m in added.split() if m != "privcalc" and not m.startswith("privcalc.")] == []
    assert hashing == ""


def test_cli_calls_load_no_argparse_or_openssl():
    """Command-line calls in a fresh interpreter without `site` (a verdict,
    a graph with its preservation check, help and a usage error) load
    neither `argparse` and the `gettext` and `locale` it brings, nor
    `hashlib` and OpenSSL's `_hashlib`."""
    calls = [["verify", "corpus/hospital.pc", "--policy", "corpus/hospital.ppo",
              "--env", "corpus/hospital.env"],
             ["simulate", "corpus/speedlimit.pc", "--env", "corpus/speedlimit.env",
              "--depth", "3", "--preserve"],
             ["-h"], ["scan", "-h"], ["scan", "corpus/hospital.pc", "--depth", "-1"]]
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {PKG!r})",
        "from privcalc import cli",
        "out, err = io.StringIO(), io.StringIO()",
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        f"    codes = [cli.main(argv) for argv in {calls!r}]",
        "print(codes)",
        "print(' '.join(sorted({'argparse', 'gettext', 'locale', 'hashlib', '_hashlib'}"
        " & set(sys.modules))))",
    ])
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={"PATH": "/usr/bin:/bin"}, cwd=str(CORPUS.parent))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[0, 0, 0, 0, 2]\n\n"


def _oldest_python() -> str:
    """A working interpreter of the oldest Python that `pyproject.toml`
    requires: `pythonX.Y` on PATH, else one under pyenv's versions. The
    test is skipped, naming what was looked for, when there is none."""
    toml = (CORPUS.parent / "pyproject.toml").read_text()
    version = re.search(r'^requires-python = ">=(\d+\.\d+)"', toml, re.M).group(1)
    exe = f"python{version}"
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    # a pyenv shim is on PATH but fails unless that version is selected
    found = [shutil.which(exe)] + sorted(pathlib.Path(pyenv, "versions").glob(f"{version}.*/bin/{exe}"))
    for path in filter(None, found):
        r = subprocess.run([str(path), "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip() == version:
            return str(path)
    pytest.skip(f"no working {exe} on PATH or in {pyenv}/versions/{version}.*")


def test_oldest_python_imports_and_parses_the_corpus():
    """Under the oldest Python the project supports, `import privcalc`
    works (the lexer's pattern compiles), every corpus file parses to what
    this interpreter makes of it, and the states of one exploration get the
    same names (each version has its own SHA-256 module)."""
    code = "\n".join([
        "import pathlib",
        "from privcalc import semantics, syntax",
        "read = {'.pc': 'system', '.ppo': 'policy', '.env': 'env'}",
        "for path in sorted(pathlib.Path('corpus').glob('*.*')):",
        "    kind = read[path.suffix]",
        "    res = getattr(syntax, 'parse_' + kind)(path.read_text())",
        "    assert res.ok, (path, res.diagnostics)",
        "    print(path.name, getattr(syntax, 'render_' + kind)(res.value))",
        "gamma = syntax.parse_env(pathlib.Path('corpus/hospital.env').read_text()).value",
        "text = pathlib.Path('corpus/hospital.pc').read_text()",
        "print(*semantics.explore(syntax.parse_system(text, gamma).value, 6).nodes)",
    ])
    out = [subprocess.run([exe, "-c", code], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": PKG, "PATH": "/usr/bin:/bin"}, cwd=str(CORPUS.parent))
           for exe in (_oldest_python(), sys.executable)]
    assert [r.returncode for r in out] == [0, 0], out[0].stderr + out[1].stderr
    assert out[0].stdout == out[1].stdout


def test_no_import_inside_a_function():
    """Import time drops through less work, not through imports deferred to
    a function's first call: every module of the package imports at its
    top level only."""
    deferred = []
    for path in sorted(pathlib.Path(PKG, "privcalc").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                deferred += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert deferred == []


def test_no_unused_import():
    """Every name that a module of the package imports at its top level is
    read somewhere in that module. The package's `__init__` is exempt: the
    names it imports are what `import privcalc` offers."""
    unused = []
    for path in sorted(pathlib.Path(PKG, "privcalc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno}:{name}" for name in
                           ((a.asname or a.name).split(".")[0] for a in node.names)
                           if name not in read]
    assert unused == []
