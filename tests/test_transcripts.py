"""Byte-level transcripts checked against golden files: `simulate --depth 6`
text (root, edges in order, state keys, counts), `simulate --depth 8
--preserve` text, `scan --depth 8` and `errors` (text and `--format
records`) on the six corpus inputs, the core rendering and the
correspondence reports of every encoded store program, and the command-line
byte matrix of `cli_matrix.py` wherever it has goldens. They pin the normal
forms, the successor order and the findings, which the other tests only
compare between two runs of the same tree."""

import contextlib
import io

import pytest

import cli_matrix
import gen
from conftest import CORPUS, GOLDEN
from privcalc import cli
from privcalc.encoding import check_correspondence, encode, render_core

SIMULATE = {
    "hospital": "hospital",
    "etp_central": "etp_central",
    "etp_decentral": "etp_decentral",
    "speedlimit": "speedlimit",
    "lab": "hospital",
    "hospital_nurse_read": "hospital",
}
# the inputs on which `scan --depth 8` and `errors` report findings (exit 1)
FINDINGS = {"lab", "hospital_nurse_read"}


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_depth6(name):
    rc, out = _run("simulate", str(CORPUS / f"{name}.pc"),
                   "--env", str(CORPUS / f"{SIMULATE[name]}.env"), "--depth", "6")
    assert rc == 0
    assert out == (GOLDEN / f"{name}.simulate6").read_text()


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_preserve_depth8(name):
    rc, out = _run("simulate", str(CORPUS / f"{name}.pc"), "--env",
                   str(CORPUS / f"{SIMULATE[name]}.env"), "--depth", "8", "--preserve")
    assert rc == 0
    assert out == (GOLDEN / f"{name}.preserve8").read_text()


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("command,golden", [("scan", "scan8"), ("errors", "errors")])
@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_findings(name, command, golden, fmt, monkeypatch):
    monkeypatch.setenv("PRIVCALC_COLOR", "never")
    case = SIMULATE[name]
    depth = ["--depth", "8"] if command == "scan" else []
    rc, out = _run(command, str(CORPUS / f"{name}.pc"), "--env", str(CORPUS / f"{case}.env"),
                   "--policy", str(CORPUS / f"{case}.ppo"), "--format", fmt, *depth)
    suffix = ".records" if fmt == "records" else ""
    assert out == (GOLDEN / f"{name}.{golden}{suffix}").read_text()
    assert rc == (1 if name in FINDINGS else 0)


def test_simulate_preserve_bare_process(tmp_path):
    """A bare process outside every group fails to type in each state; the
    normalized states carry no source span, so no location is printed."""
    src = tmp_path / "bare.pc"
    src.write_text("(new q) (b!<r1>. 0 | b?(w). w?(x # y). 0)\n")
    rc, out = _run("simulate", str(src), "--env", str(CORPUS / "hospital.env"),
                   "--depth", "3", "--preserve")
    assert rc == 1
    unclosed = ("fails to type: UnclosedBareProcess: component exercising "
                "patient_data permissions is not enclosed by any group")
    assert out == ("root 4733de88e7a1\n"
                   "4733de88e7a1 --tau--> 9c65a83dfccd\n"
                   "states 2 edges 1\n"
                   "preservation: VIOLATIONS (1 edges)\n"
                   f"  state 4733de88e7a1 {unclosed}\n"
                   f"  state 9c65a83dfccd {unclosed}\n")


def test_equal_components_keep_their_own_spans(tmp_path):
    """Lab's and Doctor's `q!<r1>. 0` are equal, and equality ignores spans,
    so a table of normal forms keyed by equality would answer Doctor's with
    Lab's. The typing error of each state must still point at Doctor's, the
    one the checker reaches first."""
    src = tmp_path / "spans.pc"
    src.write_text("Hospital[\n"
                   "  Lab[ b?(w). 0 | q!<r1>. 0 ]\n"
                   "  || Nurse[ b!<r1>. 0 ]\n"
                   "  || Doctor[ a?(w, z). (q!<r1>. 0 | 0) ]\n"
                   "  || Research[ a!<r1, r2>. 0 ]\n"
                   "]\n")
    rc, out = _run("simulate", str(src), "--env", str(CORPUS / "hospital.env"),
                   "--depth", "8", "--preserve")
    assert rc == 1
    failures = [line for line in out.splitlines() if "fails to type" in line]
    assert len(failures) == 4
    assert all(line.endswith("UnboundTerm at 4:25-4:26: subject q is not typed")
               for line in failures), out


def test_encoded_store_programs():
    text = "".join(render_core(encode(p)) + "\n" for p in gen.store_programs())
    assert text == (GOLDEN / "store_programs.core").read_text()


def test_store_programs_correspondence():
    """The correspondence reports at bounds 1, 2 and 3, where most searches
    are cut off and say so, and at 12, where all of them end."""
    text = "".join(f"# bound {bound}\n" + "".join(
        check_correspondence(p, bound).render() + "\n" for p in gen.store_programs())
        for bound in (1, 2, 3, 12))
    assert text == (GOLDEN / "store_programs.correspondence").read_text()


def test_cli_matrix_matches_goldens(tmp_path, monkeypatch):
    """Every call of the command-line byte matrix (`cli_matrix.py`) runs
    to its exit code, and each call that has a golden file prints it byte
    for byte: the corpus transcripts, and for each store program its core
    rendering and its report at bound 12."""
    monkeypatch.setenv("PRIVCALC_COLOR", "never")
    matrix = cli_matrix.calls(tmp_path)
    goldens = {call: (GOLDEN / golden).read_text() for golden, call in cli_matrix.GOLDENS.items()}
    cores = (GOLDEN / "store_programs.core").read_text().splitlines(keepends=True)
    section = (GOLDEN / "store_programs.correspondence").read_text().split("# bound 12\n")[1]
    reports = ["correspondence:" + r for r in section.split("correspondence:")[1:]]
    assert len(matrix) == 104 and len(cores) == len(reports) == 26
    for k, (core, report) in enumerate(zip(cores, reports)):
        goldens[f"store{k:02}.correspondence-12"] = core + report
    for name, argv in matrix.items():
        rc, out, err = cli_matrix.run_in_process(argv)
        if name.startswith("verify-bad"):
            assert rc == 2 and err and not out, name
            continue
        assert rc == (1 if name.split(".")[0] in FINDINGS and "simulate" not in name else 0), name
        assert not err, name
        if name in goldens:
            assert out == goldens.pop(name), name
    assert not goldens
