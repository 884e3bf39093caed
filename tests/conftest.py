import multiprocessing

import pytest

from fillperm.enumeration import class_representatives, enumerate_filling
from fillperm.filling import GenusContext
from fillperm.zpiece import derive_template


@pytest.fixture(scope="session")
def ctx1():
    return GenusContext(1)


@pytest.fixture(scope="session")
def ctx3():
    return GenusContext(3)


@pytest.fixture(scope="session")
def g1_solutions(ctx1):
    return enumerate_filling(ctx1)


@pytest.fixture(scope="session")
def g3_solutions(ctx3):
    return enumerate_filling(ctx3)


@pytest.fixture(scope="session")
def g3_class_reps(ctx3):
    return class_representatives(ctx3)


@pytest.fixture(scope="session")
def g5_class_reps():
    """The 25,908 genus-5 class representatives (a sweep of about 14 s)."""
    return class_representatives(GenusContext(5))


@pytest.fixture(scope="session")
def g4_solutions():
    return enumerate_filling(GenusContext(4))


@pytest.fixture(scope="session")
def template():
    return derive_template()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace multiprocessing.Pool by a stand-in that maps in this
    process; the list of pool sizes requested."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return sizes
