import pytest

from fillperm.filling import FillingPermutation, GenusContext
from fillperm.gluing import (
    GluingPattern,
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
