"""Colored overlays, the bounce-path swap bijection, boundary-hugging
families, and the three-term phi identity."""

import pytest

from birow import bounce
from birow.bounce import (decompose, hugging_families, make_overlay, plucker_check,
                          swap, unswap)
from birow.closed_form import corner, mu_phi
from birow.errors import MalformedOverlay, PreconditionViolated
from birow.exactnum import Polynomial
from birow.grid_poset import RectPoset
from birow.nilp import enum_nilp, phi, uncovered_sum


def _valid_queries(poset):
    r, s = poset.r, poset.s
    for i in range(r + 1):
        for j in range(s + 1):
            for k in range(1, r + s + 2):
                if max(k - i, 0) + max(k - j, 0) <= k:
                    yield (i, j, k)


def test_identity_hypothesis_enforced():
    with pytest.raises(PreconditionViolated):
        plucker_check(RectPoset(2, 2), 1, 0, 2)  # M = 3 > k
    with pytest.raises(PreconditionViolated):
        plucker_check(RectPoset(2, 2), 1, 1, 0)


def test_known_counts_on_three_by_two():
    # B x R has 6*1 overlays and they split 3 + 3 across the two sides
    p = RectPoset(3, 2)
    rep = plucker_check(p, 2, 1, 1)
    assert rep.passed
    assert rep.trials == 6


def test_overlay_and_decompose_shapes():
    p = RectPoset(3, 2)
    blue = enum_nilp(p.hexagon(1, 0, 2))
    red = enum_nilp(p.hexagon(2, 1, 1))
    o = make_overlay(blue[0], red[0])
    d = decompose(o)
    assert d.side in ("left", "right")
    color, frm, to = d.vertical[0]
    assert color == "blue" and frm in o.blue.region.sources
    assert d.vertical[-1][2] in o.blue.region.sinks
    # bounce paths and twigs only use edge instances present in the overlay
    overlay_edges = set(o.edge_colors())
    for e in d.vertical + d.horizontal:
        assert e in overlay_edges
    for (u, w) in d.twigs:
        assert ("blue", u, w) in overlay_edges


def test_swap_round_trip_single_case():
    p = RectPoset(3, 2)
    blue = enum_nilp(p.hexagon(1, 0, 2))
    red = enum_nilp(p.hexagon(2, 1, 1))
    o = make_overlay(blue[0], red[0])
    side, o2 = swap(o)
    assert (o2.blue.region.m, o2.blue.region.n) != (1, 0)
    back = unswap(side, o2)
    assert back.key() == o.key()


def test_rejects_mismatched_overlay():
    p = RectPoset(3, 2)
    blue = enum_nilp(p.hexagon(1, 0, 2))
    red = enum_nilp(p.hexagon(1, 0, 2))
    with pytest.raises(MalformedOverlay):
        make_overlay(blue[0], red[0])


def test_hugging_families_conventions():
    grid = RectPoset(2, 2).extended()
    assert hugging_families(grid, 0, 0, -1, 0, 0) == []
    assert hugging_families(grid, 0, 0, 1, 1, 1) == []  # c + d > k
    free = hugging_families(grid, 0, 0, 1, 0, 0)
    pinned = hugging_families(grid, 0, 0, 1, 1, 0)
    assert 0 < len(pinned) <= len(free)


def test_mu_phi_matches_plain_phi_inside_the_grid():
    p = RectPoset(2, 2)
    # eps = (0,0), delta = 0 at (i,j,k) = (1,1,1): no shift, plain phi
    assert corner(1, 1, 1) == (0, 0, 1, 0, 0)
    assert mu_phi(p, *corner(1, 1, 1)) == phi(p.hexagon(0, 0, 1))
    # negative order gives 0; a base above the grid gives 1 at order 0
    assert mu_phi(p, 0, 0, -1, 0, 0) == Polynomial(())
    assert mu_phi(p, 3, 0, 0, 0, 0) == Polynomial.const(1)


def test_exhaustive_bijection_on_small_grids():
    for (r, s) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3)]:
        p = RectPoset(r, s)
        for (i, j, k) in _valid_queries(p):
            rep = plucker_check(p, i, j, k)
            assert rep.passed, (r, s, i, j, k, rep.witnesses[:1])


def test_weight_witness_renders_the_uncovered_monomials(monkeypatch):
    # A swap that sends every overlay to one fixed image fails the weight
    # stage wherever an overlay's weight differs from the image's.
    p = RectPoset(3, 2)
    overlays = [make_overlay(b, r) for b in enum_nilp(p.hexagon(1, 0, 1))
                for r in enum_nilp(p.hexagon(2, 1, 0))]
    side, image = swap(overlays[0])
    monkeypatch.setattr(bounce, "swap", lambda o: (side, image))
    rep = plucker_check(p, 2, 1, 1)

    def weight(o):
        return str(uncovered_sum([o.blue], o.blue.region.members)
                   * uncovered_sum([o.red], o.red.region.members))

    want = [(o.edge_colors(), weight(image), weight(o)) for o in overlays
            if weight(o) != weight(image)]
    got = [(w["overlay"], w["observed"], w["expected"]) for w in rep.witnesses
           if w["stage"] == "weight"]
    assert want and got == want
