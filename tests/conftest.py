import pathlib

import pytest

from privcalc.syntax import parse_env, parse_policy, parse_system

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = CORPUS / "golden"

NAMES = ("hospital", "etp_central", "etp_decentral", "speedlimit")


def load(name: str):
    """Parsed (policy, gamma, system) triple for a corpus case."""
    gamma = parse_env((CORPUS / f"{name}.env").read_text()).value
    assert gamma is not None
    pol = parse_policy((CORPUS / f"{name}.ppo").read_text()).value
    assert pol is not None
    res = parse_system((CORPUS / f"{name}.pc").read_text(), gamma)
    assert res.ok, [str(d) for d in res.diagnostics]
    return pol, gamma, res.value


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in NAMES}


@pytest.fixture(scope="session")
def hospital(corpus):
    return corpus["hospital"]


@pytest.fixture(scope="session")
def speedlimit(corpus):
    return corpus["speedlimit"]


@pytest.fixture(scope="session")
def lab_system():
    gamma = parse_env((CORPUS / "hospital.env").read_text()).value
    res = parse_system((CORPUS / "lab.pc").read_text(), gamma)
    assert res.ok
    return gamma, res.value


@pytest.fixture(scope="session")
def nurse_mutant():
    gamma = parse_env((CORPUS / "hospital.env").read_text()).value
    pol = parse_policy((CORPUS / "hospital.ppo").read_text()).value
    res = parse_system((CORPUS / "hospital_nurse_read.pc").read_text(), gamma)
    assert res.ok
    return pol, gamma, res.value
