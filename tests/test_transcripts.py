"""Byte-level transcripts checked against golden files: `simulate --depth 6`
text (root, edges in order, state keys, counts) on the six corpus inputs,
and the core rendering of every encoded store program. They pin the normal
forms and the successor order, which the other tests only compare between
two runs of the same tree."""

import contextlib
import io

import pytest

import gen
from conftest import CORPUS, GOLDEN
from privcalc import cli
from privcalc.encoding import encode, render_core

SIMULATE = {
    "hospital": "hospital",
    "etp_central": "etp_central",
    "etp_decentral": "etp_decentral",
    "speedlimit": "speedlimit",
    "lab": "hospital",
    "hospital_nurse_read": "hospital",
}


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_depth6(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["simulate", str(CORPUS / f"{name}.pc"),
                       "--env", str(CORPUS / f"{SIMULATE[name]}.env"), "--depth", "6"])
    assert rc == 0
    assert out.getvalue() == (GOLDEN / f"{name}.simulate6").read_text()


def test_encoded_store_programs():
    text = "".join(render_core(encode(p)) + "\n" for p in gen.store_programs())
    assert text == (GOLDEN / "store_programs.core").read_text()
