import hashlib

import pytest

from fillperm.enumeration import count_classes, enumerate_filling
from fillperm.filling import FillingPermutation, GenusContext
from fillperm.gluing import (
    GluingPattern,
    _relabeling_tables,
    canonical_key,
    euler_genus,
    from_filling,
    search_patterns,
    t1,
    validate,
)
from fillperm.perms import Permutation

TORUS_SQUARE = GluingPattern.make(1, [[1, 2, -1, -2]])


def test_torus_square_valid():
    report = validate(TORUS_SQUARE)
    assert report.ok and report.failures == ()
    assert euler_genus(TORUS_SQUARE) == 1
    assert t1(TORUS_SQUARE) == 2


def test_sphere_like_pattern_invalid():
    bad = GluingPattern.make(1, [[1, -1, 2, -2]])
    report = validate(bad)
    assert not report.ok
    assert any("orbit" in f for f in report.failures)


def test_validate_missing_inverse():
    report = validate(GluingPattern.make(1, [[1, 2, 1, -2]]))
    assert not report.ok


def test_validate_disconnected():
    # two separate squares: each id used once per sign but the complex
    # splits into two components
    pat = GluingPattern.make(2, [[1, 3, -1, -3], [2, 4, -2, -4]])
    report = validate(pat)
    assert not report.ok


def test_json_round_trip():
    again = GluingPattern.from_json(TORUS_SQUARE.to_json())
    assert again == TORUS_SQUARE


@pytest.mark.parametrize("text", [
    '[1, 2]',
    '{"polygons": [[1, 2, -1, -2]]}',
    '{"i": "1", "polygons": [[1, 2, -1, -2]]}',
    '{"i": true, "polygons": [[1, 2, -1, -2]]}',
    '{"i": 1.0, "polygons": [[1, 2, -1, -2]]}',
    '{"i": 1}',
    '{"i": 1, "polygons": [1, 2, -1, -2]}',
    '{"i": 1, "polygons": [["a", 2, -1, -2]]}',
    '{"i": 1, "polygons": [[true, 2, -1, -2]]}',
    '{"i": 1, "polygons": [[1.5, 2, -1, -2]]}',
])
def test_from_json_checks_the_schema(text):
    with pytest.raises(ValueError):
        GluingPattern.from_json(text)


def test_from_filling_torus():
    fp = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
    pat = from_filling(fp)
    assert pat.i == 1
    assert canonical_key(pat) == canonical_key(TORUS_SQUARE)


def test_from_filling_g3(g3_solutions):
    for fp in g3_solutions[:60]:
        pat = from_filling(fp)
        assert pat.i == 5
        assert len(pat.polygons) == 1
        assert validate(pat).ok
        assert euler_genus(pat) == 3
        assert t1(pat) == 10


def test_single_polygon_count_identity(g3_solutions):
    pat = from_filling(g3_solutions[0])
    assert len(pat.polygons) == pat.i - 2 * 3 + 2 == 1


def test_search_torus():
    res = search_patterns(1, 1, 10)
    assert len(res) == 1
    assert canonical_key(res[0]) == canonical_key(TORUS_SQUARE)


def test_search_g2_i3_empty():
    assert search_patterns(2, 3, 10) == []


def test_search_g2_i4():
    res = search_patterns(2, 4, 100)
    assert res
    for pat in res:
        assert validate(pat).ok
        assert euler_genus(pat) == 2
        assert len(pat.polygons) == 2
        assert t1(pat) <= 6
        assert all(len(p) >= 4 for p in pat.polygons)
    # the two-octagon configuration is among them
    assert any(sorted(len(p) for p in pat.polygons) == [8, 8] for pat in res)


def test_search_non_divisible_by_four_bound():
    for genus, intersections in ((2, 4), (3, 6)):
        for pat in search_patterns(genus, intersections, 10000):
            if any(len(p) % 4 for p in pat.polygons):
                assert t1(pat) <= 4 * genus - 4


def test_search_g3_minimal_equality():
    res = search_patterns(3, 5, 10000)
    assert res
    for pat in res:
        assert len(pat.polygons) == 1
        assert t1(pat) == 4 * 3 - 2


def test_search_g3_i6_bound():
    res = search_patterns(3, 6, 10000)
    assert res
    for pat in res:
        assert t1(pat) <= 4 * 3 - 2
        assert euler_genus(pat) == 3
        assert len(pat.polygons) == 2


def test_search_guard():
    with pytest.raises(ValueError, match="search space too large"):
        search_patterns(3, 7, 1)


def test_search_below_minimum_returns_empty():
    assert search_patterns(3, 4, 10) == []


def test_search_limit():
    assert len(search_patterns(2, 4, 1)) == 1


def test_canonical_key_invariant_under_relabeling():
    # rotating the second curve's numbering must not change the key
    pat = search_patterns(2, 4, 10)[0]
    i = pat.i
    remap = {}
    for k in range(1, i + 1):
        remap[k] = k
        remap[-k] = -k
        shifted = (k % i) + 1 + i
        remap[i + k] = shifted
        remap[-(i + k)] = -shifted
    rotated = GluingPattern.make(
        i, [[remap[v] for v in poly] for poly in pat.polygons]
    )
    assert canonical_key(rotated) == canonical_key(pat)


def nested_loop_relabelings(i):
    """Reference: the relabelling group on signed arc ids written out
    directly, per curve a rotation of the arc numbering and an optional
    reversal (which renumbers along the new direction and negates the
    signs together), plus the swap of the two curves."""
    def dihedral(k, r, eps):
        return (eps * (k - 1) + r) % i + 1

    for swap in (False, True):
        for ra in range(i):
            for ea in (1, -1):
                for rb in range(i):
                    for eb in (1, -1):
                        table = {}
                        for k in range(1, i + 1):
                            na = dihedral(k, ra, ea) + (i if swap else 0)
                            table[k] = ea * na
                            table[-k] = -ea * na
                            nb = dihedral(k, rb, eb) + (0 if swap else i)
                            table[i + k] = eb * nb
                            table[-(i + k)] = -eb * nb
                        yield table


@pytest.mark.parametrize("i", range(1, 9))
def test_relabeling_tables_match_the_nested_loops(i):
    ids = [v for k in range(1, 2 * i + 1) for v in (k, -k)]
    cached = {tuple(table[v] for v in ids) for table in _relabeling_tables(i)}
    reference = {tuple(table[v] for v in ids)
                 for table in nested_loop_relabelings(i)}
    assert cached == reference
    assert len(_relabeling_tables(i)) == len(reference) == 8 * i * i


@pytest.mark.parametrize("g, classes", [(1, 1), (3, 5)])
def test_one_polygon_patterns_are_the_twisting_classes(g, classes):
    ctx = GenusContext(g)
    keys = {canonical_key(from_filling(fp)) for fp in enumerate_filling(ctx)}
    found = {p.polygons for p in search_patterns(g, 2 * g - 1, 10**6)}
    assert keys == found
    assert len(keys) == count_classes(ctx) == classes


@pytest.mark.parametrize("g, i, digest", [
    (1, 1, "2ffd82ff4bfcfcc9"),
    (2, 4, "dba7097ac6e859f0"),
    (2, 6, "799d25cd75384fa1"),
    (3, 5, "6b466fb4283df178"),
    (3, 6, "5a121f108452015e"),
])
def test_search_output_is_pinned(g, i, digest):
    text = repr([p.polygons for p in search_patterns(g, i, 10**6)])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
