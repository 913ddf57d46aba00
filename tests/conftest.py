import pathlib

import pytest

from kmrd import load_gcm

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


@pytest.fixture(scope="session")
def ff_spec():
    return load_gcm(INPUTS / "ff.json")


@pytest.fixture(scope="session")
def rank7_spec():
    return load_gcm(INPUTS / "rank7.json")


@pytest.fixture(scope="session")
def e10_spec():
    return load_gcm(INPUTS / "e10.json")


@pytest.fixture(scope="session")
def ff_path():
    return str(INPUTS / "ff.json")


@pytest.fixture(scope="session")
def rank7_path():
    return str(INPUTS / "rank7.json")
