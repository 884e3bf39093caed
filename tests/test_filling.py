import random

import pytest

from fillperm.filling import (
    Curve,
    Direction,
    FillingPermutation,
    GenusContext,
    ReconstructionError,
    SymbolInfo,
    _check_twisting_generators,
    alpha_reversal,
    beta_reversal,
    canonical_perms,
    is_filling,
    reconstruct,
    symbol_info,
    symbol_of,
    twisting_closure,
)
from fillperm.enumeration import canonical_class_rep
from fillperm.perms import Permutation, closure, from_cycles, identity


def test_context_derived_fields():
    ctx = GenusContext(3)
    assert ctx.n == 20
    assert ctx.i_min == 5
    with pytest.raises(ValueError):
        GenusContext(0)


def test_canonical_perms_g1():
    cp = canonical_perms(GenusContext(1))
    assert cp.tau == identity(4)
    assert cp.iota == from_cycles([(1, 3), (2, 4)], 4)
    assert cp.kappa == identity(4)
    assert cp.delta == identity(4)
    assert cp.eta == from_cycles([(1, 3)], 4)
    assert cp.mu == from_cycles([(1, 2), (3, 4)], 4)


def test_canonical_perms_g2_iota():
    cp = canonical_perms(GenusContext(2))
    assert cp.iota == from_cycles(
        [(1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12)], 12
    )
    assert cp.iota == cp.Q.power(6)


def test_canonical_perms_g3_kappa():
    cp = canonical_perms(GenusContext(3))
    assert cp.kappa == from_cycles([(1, 3, 5, 7, 9), (11, 13, 15, 17, 19)], 20)


def test_tau_structure():
    # tau advances forward arcs and retreats on the inverse labels
    cp = canonical_perms(GenusContext(2))
    assert cp.tau == from_cycles([(1, 3, 5), (2, 4, 6), (11, 9, 7), (12, 10, 8)], 12)
    assert canonical_perms(GenusContext(1)).tau.cycles() == [(1,), (2,), (3,), (4,)]
    assert canonical_perms(GenusContext(3)).tau.is_parity_respecting()


def test_symbol_info():
    ctx = GenusContext(3)
    assert symbol_info(ctx, 1) == SymbolInfo(Curve.ALPHA, 1, Direction.FORWARD)
    assert symbol_info(ctx, 2).curve is Curve.BETA
    assert symbol_info(ctx, 2).arc_index == 1
    info11 = symbol_info(ctx, 11)
    assert (info11.curve, info11.arc_index, info11.direction) == (
        Curve.ALPHA, 1, Direction.INVERSE,
    )
    with pytest.raises(ValueError):
        symbol_info(ctx, 21)


def test_symbol_info_iota_flips_direction():
    ctx = GenusContext(3)
    cp = canonical_perms(ctx)
    for j in range(1, ctx.n + 1):
        a, b = symbol_info(ctx, j), symbol_info(ctx, cp.iota(j))
        assert a.curve is b.curve and a.arc_index == b.arc_index
        assert a.direction is not b.direction


def test_symbol_of_inverts_symbol_info():
    ctx = GenusContext(4)
    for j in range(1, ctx.n + 1):
        info = symbol_info(ctx, j)
        assert symbol_of(ctx, info.curve, info.arc_index, info.direction) == j


def test_is_filling_torus():
    ctx = GenusContext(1)
    assert is_filling(ctx, Permutation([2, 3, 4, 1])) == (True, None)
    ok, why = is_filling(ctx, Permutation([3, 4, 1, 2]))
    assert not ok and why == "not an n-cycle"


def test_is_filling_diagnostic_order():
    ctx = GenusContext(1)
    # an n-cycle that mixes parities
    ok, why = is_filling(ctx, Permutation([2, 4, 1, 3]))
    assert not ok and why == "not parity respecting"
    with pytest.raises(ValueError, match="degree mismatch"):
        is_filling(ctx, identity(6))


def test_q12_is_not_filling_at_g2():
    ctx = GenusContext(2)
    ok, _ = is_filling(ctx, from_cycles([list(range(1, 13))], 12))
    assert not ok


def test_filling_equation_holds_for_solutions(g3_solutions):
    ctx = GenusContext(3)
    cp = canonical_perms(ctx)
    for fp in g3_solutions[:80]:
        assert fp.perm.compose(cp.iota.compose(fp.perm)) == cp.tau


def test_boundary_word_torus():
    fp = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
    assert fp.boundary_word() == (1, 2, 3, 4)
    fp2 = FillingPermutation(GenusContext(1), Permutation([4, 1, 2, 3]))
    assert fp2.boundary_word() == (1, 4, 3, 2)


def test_boundary_word_is_a_traversal(g3_solutions):
    for fp in g3_solutions[:40]:
        word = fp.boundary_word()
        assert len(word) == 20
        assert sorted(word) == list(range(1, 21))


def test_reconstruct_torus():
    rep = reconstruct(FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1])))
    assert rep.genus == 1
    assert len(rep.vertex_classes) == 1
    assert len(rep.vertex_classes[0]) == 4
    assert rep.alpha_is_single_curve and rep.beta_is_single_curve


def test_reconstruct_all_g3(g3_solutions):
    for fp in g3_solutions:
        rep = reconstruct(fp)
        assert rep.genus == 3
        assert len(rep.vertex_classes) == 5
        assert all(len(c) == 4 for c in rep.vertex_classes)
        assert rep.alpha_is_single_curve and rep.beta_is_single_curve


def test_twisting_closure_sizes():
    sizes = [len(twisting_closure(GenusContext(g))) for g in range(1, 6)]
    assert sizes == [8, 72, 200, 392, 648]
    assert identity(20) in twisting_closure(GenusContext(3))


def product_set_closure(ctx):
    """Reference: the group generated by every product
    mu^l kappa^k delta^j rev^i, not only by the four generators."""
    cp = canonical_perms(ctx)
    rev = alpha_reversal(ctx)
    order = 2 * ctx.g - 1
    products = set()
    for l in (0, 1):
        for k in range(order):
            for j in range(order):
                for i in (0, 1):
                    t = cp.kappa.power(k).compose(cp.delta.power(j))
                    if i:
                        t = t.compose(rev)
                    if l:
                        t = cp.mu.compose(t)
                    products.add(t)
    return tuple(closure(products))


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_twisting_closure_matches_the_product_set_closure(g):
    ctx = GenusContext(g)
    assert twisting_closure(ctx) == product_set_closure(ctx)


def test_twisting_generators_are_checked():
    for g in range(1, 7):
        ctx = GenusContext(g)
        cp = canonical_perms(ctx)
        _check_twisting_generators(
            ctx, (cp.kappa, cp.delta, alpha_reversal(ctx), cp.mu))
    ctx = GenusContext(3)
    with pytest.raises(ReconstructionError, match="tau"):
        _check_twisting_generators(ctx, (canonical_perms(ctx).eta,))


def test_twisting_conjugation_preserves_solutions(g3_solutions):
    # exhaustively: every twisting element maps the solution set into itself
    ctx = GenusContext(3)
    solset = {fp.perm for fp in g3_solutions}
    for t in twisting_closure(ctx):
        for fp in g3_solutions:
            assert fp.perm.conjugate_by(t) in solset


def test_index_preserving_flip_breaks_the_equation():
    # the direction flip must renumber arcs along the new direction;
    # pairing each arc with its own inverse does not commute with the
    # arc-advance and so leaves the solution set (for g >= 2)
    ctx = GenusContext(3)
    cp = canonical_perms(ctx)
    assert cp.eta.compose(cp.tau) != cp.tau.compose(cp.eta)
    rev = alpha_reversal(ctx)
    assert rev.compose(cp.tau) == cp.tau.compose(rev)
    assert rev.compose(cp.iota) == cp.iota.compose(rev)
    assert beta_reversal(ctx).compose(cp.tau) == cp.tau.compose(beta_reversal(ctx))


def test_alpha_reversal_matches_eta_at_g1():
    ctx = GenusContext(1)
    assert alpha_reversal(ctx) == canonical_perms(ctx).eta


def test_twisting_closure_is_a_group():
    ctx = GenusContext(2)
    W = twisting_closure(ctx)
    Wset = set(W)
    rng = random.Random(23)
    for _ in range(50):
        a, b = rng.choice(W), rng.choice(W)
        assert a.compose(b) in Wset


def test_canonical_class_rep_g1():
    ctx = GenusContext(1)
    r1 = canonical_class_rep(ctx, Permutation([2, 3, 4, 1]))
    r2 = canonical_class_rep(ctx, Permutation([4, 1, 2, 3]))
    assert r1 == r2 == Permutation([2, 3, 4, 1])


def test_canonical_class_rep_idempotent(g3_class_reps):
    ctx = GenusContext(3)
    for rep in g3_class_reps:
        assert canonical_class_rep(ctx, rep.perm) == rep.perm


def test_class_invariant_under_twisting(g3_class_reps):
    ctx = GenusContext(3)
    rng = random.Random(31)
    T = twisting_closure(ctx)
    for rep in g3_class_reps:
        for _ in range(10):
            t = rng.choice(T)
            conj = rep.perm.conjugate_by(t)
            assert canonical_class_rep(ctx, conj) == rep.perm


def test_canonical_class_rep_rejects_non_solutions():
    with pytest.raises(ValueError):
        canonical_class_rep(GenusContext(1), Permutation([3, 4, 1, 2]))
