import contextlib
import io
import json
import multiprocessing

import pytest

from fillperm.cli import main
from fillperm.enumeration import class_representatives, enumerate_filling
from fillperm.filling import FillingPermutation, GenusContext
from fillperm.perms import Permutation
from fillperm.zpiece import derive_template


def is_n_cycle(p: Permutation) -> bool:
    """True iff the permutation is a single cycle of full length."""
    return len(p.cycles()) == 1


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
def g5_listing():
    """Exit code and parsed output of `fillperm enumerate --genus 5`, which
    lists the class representatives (one orderly search of the shard,
    about 2 s); the session's only genus-5 search."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["enumerate", "--genus", "5"])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="session")
def g5_class_reps(g5_listing):
    """The 25,908 genus-5 class representatives, from the listing."""
    ctx = GenusContext(5)
    return [FillingPermutation(ctx, Permutation(entry["images"]))
            for entry in g5_listing[1]["results"]]


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
