"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success (visible with -s; the per-test
verdicts from pytest -v serve the same purpose), and pins the tolerances
stated for the criterion it implements.
"""

import json
import math
import os
import time
from fractions import Fraction
from itertools import combinations

import pytest

from fillperm.cli import main as cli_main
from fillperm.enumeration import (
    _roots,
    base_involution,
    count_classes,
    count_Lg,
    enumerate_filling,
    excluded_roots,
    lower_bound,
    root_count,
    square_roots,
    upper_bound,
)
from fillperm.filling import (
    FillingPermutation,
    GenusContext,
    canonical_perms,
    reconstruct,
)
from fillperm.gluing import from_filling, search_patterns, t1, validate
from fillperm.hyperbolic import (
    edge_length,
    inj_radius_lower,
    lambda_g,
    lambda_limit,
    max_coincident,
    m_g,
    report,
)
from fillperm.perms import Permutation, identity
from fillperm.zpiece import LSequence, build_from_sequence, detect_zpieces, splice
from conftest import is_n_cycle
from test_enumeration import excluded_root_count
from test_hyperbolic import edge_length_oracle, polygon_area, polygon_area_coefficient

JOBS = min(8, os.cpu_count() or 1)


# A test oracle: no library code needs the verified root count.
def count_roots_verified(ctx: GenusContext) -> int:
    """Generate every admissible root, assert C*C = iota o tau, and count."""
    invol = (0,) + base_involution(ctx).perm.images
    symbols = range(1, ctx.n + 1)
    count = 0
    for C in _roots(ctx):
        for j in symbols:
            if C[C[j]] != invol[j]:
                raise AssertionError("square root identity violated")
        count += 1
    return count


def test_criterion_01_genus2_impossibility():
    started = time.time()
    ctx = GenusContext(2)
    roots = list(square_roots(ctx))
    sols = enumerate_filling(ctx)
    elapsed = time.time() - started
    assert len(roots) == 48
    assert sols == []
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: genus-2 impossibility "
          f"(48 roots, 0 filling permutations, {elapsed:.2f}s)")


def test_criterion_02_root_count_formula():
    expected = {1: 2, 2: 48, 3: 3840, 4: 645120}
    for g, want in expected.items():
        assert root_count(g) == want
        # count_roots_verified asserts C*C = iota o tau on every emission
        assert count_roots_verified(GenusContext(g)) == want
    print("ACCEPTANCE 2 PASS: root counts 2/48/3840/645120, "
          "square identity verified on every root")


def test_criterion_03_torus_base_case():
    ctx = GenusContext(1)
    sols = enumerate_filling(ctx)
    assert len(sols) == 2
    assert count_classes(ctx) == 1
    cp = canonical_perms(ctx)
    sigma = Permutation([2, 3, 4, 1])  # the 4-cycle (1,2,3,4)
    assert cp.tau == identity(4)
    assert sigma.compose(cp.iota.compose(sigma)) == cp.tau
    print("ACCEPTANCE 3 PASS: torus gives 2 oriented solutions, 1 class, "
          "equation holds with trivial advance")


def test_criterion_04_exclusion_family():
    g = 3
    ctx = GenusContext(g)
    cp = canonical_perms(ctx)
    exc = list(excluded_roots(ctx))
    assert len(exc) == excluded_root_count(g) == 480
    assert len(set(exc)) == 480
    for c in exc:
        sigma = cp.iota.compose(c)
        assert sigma.compose(sigma)(1) == 1
        assert not is_n_cycle(sigma)
    remainder = root_count(g) - excluded_root_count(g)
    closed_form = (
        2 ** (2 * g - 2) * (4 * g - 5) * math.factorial(2 * g - 1) // (2 * g - 2)
    )
    assert remainder == 3360 == closed_form
    print("ACCEPTANCE 4 PASS: 480 excluded roots, every certificate holds, "
          "3840 - 480 = 3360 matches the closed form")


def test_criterion_05_class_count_brackets():
    started = time.time()
    n3 = count_classes(GenusContext(3), jobs=JOBS)
    t3 = time.time() - started
    assert 1 <= n3 <= upper_bound(3) == 672
    assert math.ceil(lower_bound(3)) <= n3
    assert t3 < 10.0

    started = time.time()
    ctx4 = GenusContext(4)
    sols4 = enumerate_filling(ctx4)
    n4 = count_classes(ctx4, jobs=JOBS)
    t4 = time.time() - started
    assert len(sols4) >= 1            # existence of a genus-4 witness
    assert 1 <= n4 <= upper_bound(4) == 84480
    assert t4 < 120.0
    print(f"ACCEPTANCE 5 PASS: N(3)={n3} in [1,672] ({t3:.1f}s), "
          f"N(4)={n4} in [1,84480] with {len(sols4)} witnesses ({t4:.1f}s)")


def test_criterion_06_reconstruction_invariants(g1_solutions, g3_solutions,
                                                g4_solutions):
    volumes = {1: g1_solutions, 3: g3_solutions, 4: g4_solutions}
    for g, sols in volumes.items():
        for fp in sols:
            rep = reconstruct(fp)
            assert rep.genus == g
            assert len(rep.vertex_classes) == 2 * g - 1
            assert all(len(c) == 4 for c in rep.vertex_classes)
            assert rep.alpha_is_single_curve and rep.beta_is_single_curve
    counts = {g: len(s) for g, s in volumes.items()}
    print(f"ACCEPTANCE 6 PASS: reconstruction invariants hold for all "
          f"solutions at genus 1/3/4 ({counts})")


def test_criterion_07_splice_pipeline(template, g3_class_reps):
    # template derivation succeeded (fixture); splice every class at
    # every vertex
    for rep in g3_class_reps:
        for k in range(1, 6):
            out = splice(rep, k, template)
            assert out.ctx.g == 5

    seqs = [LSequence(5, (1, a2)) for a2 in (2, 3, 4, 5)]
    results = [build_from_sequence(s, template) for s in seqs]
    assert len({fp.perm for fp in results}) == count_Lg(5) == 4
    for fp in results:
        matches = detect_zpieces(fp, template)
        assert matches
        for z1, z2 in combinations(matches, 2):
            assert not (set(z1.alpha_interior) & set(z2.alpha_interior))
            assert not (set(z1.beta_interior) & set(z2.beta_interior))

    assert (count_Lg(3), count_Lg(5), count_Lg(7)) == (1, 4, 22)
    print("ACCEPTANCE 7 PASS: template derived, all class/vertex splices "
          "valid at genus 5, attachment-sequence builds distinct and "
          "piece-disjoint, L-counts 1/4/22")


def test_criterion_08_once_crossing_curve_counts(g1_solutions, g3_solutions,
                                                 g4_solutions):
    for g, sols in ((1, g1_solutions), (3, g3_solutions), (4, g4_solutions)):
        for fp in sols:
            assert t1(from_filling(fp)) == 4 * g - 2

    found = search_patterns(2, 4, 1000)
    assert found
    for pat in found:
        assert validate(pat).ok
        assert t1(pat) <= 6

    for genus, intersections in ((2, 4), (3, 6)):
        for pat in search_patterns(genus, intersections, 10000):
            if any(len(p) % 4 for p in pat.polygons):
                assert t1(pat) <= 4 * genus - 4

    assert search_patterns(2, 3, 10) == []
    print(f"ACCEPTANCE 8 PASS: minimal pairs give 4g-2 exactly, "
          f"(2,4) search found {len(found)} patterns all with t1 <= 6, "
          f"non-div-4 bound holds, (2,3) empty")


def test_criterion_09_hyperbolic_numerics():
    alt = math.acosh(2.0 * (0.5 + math.sqrt(5 / 8 + math.sqrt(5) / 8)))
    assert abs(m_g(3) / 20 - alt) < 1e-12
    for g in range(2, 51):
        assert polygon_area_coefficient(g) == 4 * g - 4
        assert abs(polygon_area(g) - 2 * math.pi * (2 * g - 2)) < 1e-12
        assert abs(edge_length(g) - edge_length_oracle(g)) < 1e-12
    assert lambda_g(3) == pytest.approx(0.33560, abs=1e-4)
    samples = [3, 5, 10, 100, 10**4, 10**6]
    lams = [lambda_g(g) for g in samples]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert abs(lambda_g(10**6) - lambda_limit()) < 1e-5
    assert max_coincident(3) == 168
    rep = report(3)
    assert rep.inj_radius_lower == 0.5 * rep.systole_lower
    assert "0.3253" in rep.quoted_value_note
    print("ACCEPTANCE 9 PASS: perimeter/edge identities to 1e-12, "
          "separator values and monotonicity, 42(2g-2) = 168 at genus 3, "
          "quoted-constant discrepancy reported")


def test_criterion_10_determinism(capsys):
    outputs = []
    for jobs in ("1", "2", "8"):
        code = cli_main(["enumerate", "--genus", "3", "--jobs", jobs])
        assert code == 0
        raw = capsys.readouterr().out
        data = json.loads(raw)
        del data["timing"]
        outputs.append(json.dumps(data, sort_keys=True).encode())
    assert outputs[0] == outputs[1] == outputs[2]
    print("ACCEPTANCE 10 PASS: enumerate output byte-identical across "
          "1/2/8 workers (timing field excluded)")
