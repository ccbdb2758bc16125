"""Colored overlays, the bounce-path swap bijection, boundary-hugging
families, and the three-term phi identity."""

import dataclasses
import re
from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Tuple

import pytest

from birow import bounce
from birow.bounce import (_CORNERS, _SIDES, ColoredEdge, Edge, Taken, _bounce, _edge,
                          _edge_colors, _forced_path, _plan, _point, _rebuild, _table, _Table,
                          hugging_families, plucker_check, swap, unswap)
from birow.closed_form import corner, mu_phi
from birow.errors import MalformedOverlay, PreconditionViolated
from birow.exactnum import Polynomial
from birow.grid_poset import RectPoset, Region
from birow.nilp import Masks, decode, enum_nilp, uncovered_sum
from test_nilp import Path, member_bits, phi_poly, reference_nilp, regions, to_masks, walk


@dataclass(frozen=True)
class Family:
    """A family as the reference bijection below holds it: its region and
    the vertices of each of its paths."""
    region: Region
    paths: Tuple[Path, ...]


def overlay_masks(br: Region, blue: Masks, rr: Region, red: Masks) -> Tuple[Masks, Masks]:
    """The masks of the overlay of blue, a family of br, and red, a family
    of rr, validated as plucker_check validates them, by making their table."""
    _table([br, rr, None, None, None, None])
    return blue, red


def family(region: Region, masks: Masks) -> Family:
    """The family of the region with the given (cover, east, north) masks,
    its paths walked from the sources along the edge bits."""
    return Family(region, walk(region, masks))


@dataclass(frozen=True)
class BounceDecomposition:
    vertical: Tuple[ColoredEdge, ...]
    horizontal: Tuple[ColoredEdge, ...]
    twigs: Tuple[Edge, ...]
    side: str  # "left" or "right"


def edge_set(g: RectPoset, taken: Taken) -> FrozenSet[ColoredEdge]:
    """The colored edges of a bounce path's masks: the blue edges it took
    upward and the red ones it took downward."""
    return frozenset((color, *_edge(g, d, 1 << b)) for color, masks in zip(("blue", "red"), taken)
                     for d, mask in enumerate(masks)
                     for b in range(mask.bit_length()) if mask >> b & 1)


def decompose(br: Region, blue: Masks, rr: Region, red: Masks
              ) -> Tuple[str, FrozenSet[ColoredEdge], FrozenSet[ColoredEdge]]:
    """The overlay's side and the colored edges of its bitmask vertical and
    horizontal bounce paths, for comparison with the Counter reference
    below."""
    side, vertical, horizontal = _bounce(_plan(br), *overlay_masks(br, blue, rr, red))
    g = br.poset
    return side, edge_set(g, vertical), edge_set(g, horizontal)


# The grids of the exhaustive checks.
SMALL_GRIDS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3)]


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
    br, rr = p.hexagon(1, 0, 2), p.hexagon(2, 1, 1)
    blue, red = enum_nilp(br), enum_nilp(rr)
    side, vertical, horizontal = decompose(br, blue[0], rr, red[0])
    assert side in ("left", "right")
    assert any(color == "blue" and frm in br.sources for color, frm, _ in vertical)
    assert any(to in br.sinks for _, _, to in vertical)
    # bounce paths only use edge instances present in the overlay, and the
    # two paths take each at most once
    overlay_edges = set(_edge_colors(br, blue[0], rr, red[0]))
    assert vertical | horizontal <= overlay_edges and not vertical & horizontal


def test_swap_round_trip_single_case():
    p = RectPoset(3, 2)
    table, _ = _overlays(p, 3, 2, 2)
    br, rr = table.blue.region, table.red.region
    assert (br, rr) == (p.hexagon(1, 0, 2), p.hexagon(2, 1, 1))
    blue, red = enum_nilp(br), enum_nilp(rr)
    masks = overlay_masks(br, blue[0], rr, red[0])
    side, blue2, red2 = swap(table, *masks)
    blue_plan, red_plan = table.sides[side]
    assert (blue_plan.region.m, blue_plan.region.n) != (1, 0)
    # The image masks are those of families of the skewed regions.
    image = family(blue_plan.region, blue2), family(red_plan.region, red2)
    assert blue2 in enum_nilp(blue_plan.region) and red2 in enum_nilp(red_plan.region)
    assert (_reference_masks(image[0]), _reference_masks(image[1])) == (blue2, red2)
    back = unswap(side, table, blue2, red2)
    assert back == masks
    assert (family(br, back[0]).paths, family(rr, back[1]).paths) == \
        (reference_nilp(br)[0], reference_nilp(rr)[0])


def test_rejects_mismatched_overlay():
    p = RectPoset(3, 2)
    region = p.hexagon(1, 0, 2)
    blue = enum_nilp(region)
    with pytest.raises(MalformedOverlay):
        overlay_masks(region, blue[0], region, blue[0])


def test_hugging_families_conventions():
    region = RectPoset(2, 2, -5, -5).hexagon(0, 0, 1)
    assert hugging_families(region, 1, 1) == []  # c + d > k
    free = hugging_families(region, 0, 0)
    pinned = hugging_families(region, 1, 0)
    assert 0 < len(pinned) <= len(free)


@pytest.mark.parametrize("g", [RectPoset(2, 2), RectPoset(2, 2, -1, -1), RectPoset(3, 3, 0, -2)],
                         ids=repr)
def test_a_forced_route_outside_the_grid_leaves_the_region(g):
    # The route east from (imin, s+1) to (imin+1, s+1) is outside the grid,
    # but its points have the bits of (imin+1, jmin) and (imin+2, jmin),
    # members of the region that holds every point.
    src, snk = (g.imin, g.s + 1), (g.imin + 1, g.s + 1)
    assert [g.index(src), g.index(snk)] == [g.index((g.imin + 1, g.jmin)),
                                            g.index((g.imin + 2, g.jmin))]
    region = Region(g, g.imin, g.jmin, 1, g.mask(g.members()), (src,), (snk,))
    for leftmost in (True, False):
        with pytest.raises(MalformedOverlay, match=rf"leaves the region at \({src[0]}, {src[1]}\)"):
            _forced_path(region, 0, leftmost)


def test_mu_phi_matches_plain_phi_inside_the_grid():
    p = RectPoset(2, 2)
    # eps = (0,0), delta = 0 at (i,j,k) = (1,1,1): no shift, plain phi
    assert corner(1, 1, 1) == (0, 0, 1, 0, 0)
    assert mu_phi(p, *corner(1, 1, 1)) == phi_poly(p.hexagon(0, 0, 1))
    # negative order gives 0; a base above the grid gives 1 at order 0
    assert mu_phi(p, 0, 0, -1, 0, 0) == Polynomial(())
    assert mu_phi(p, 3, 0, 0, 0, 0) == Polynomial.const(1)


def test_exhaustive_bijection_on_small_grids():
    for (r, s) in SMALL_GRIDS:
        p = RectPoset(r, s)
        for (i, j, k) in _valid_queries(p):
            rep = plucker_check(p, i, j, k)
            assert rep.passed, (r, s, i, j, k, rep.witnesses[:1])


def _one_image(monkeypatch):
    """The blue and red regions and the overlays of
    plucker_check(RectPoset(3, 2), 2, 1, 1) in order, the side and masks of
    the first one's image, and the check's report under a swap that sends
    every overlay to that one image."""
    p = RectPoset(3, 2)
    table, overlays = _overlays(p, 2, 1, 1)
    br, rr = table.blue.region, table.red.region
    assert (br, rr) == (p.hexagon(1, 0, 1), p.hexagon(2, 1, 0))
    side, *image = swap(table, *overlay_masks(br, overlays[0][0], rr, overlays[0][1]))
    monkeypatch.setattr(bounce, "swap", lambda *overlay: (side, *image))
    return table, overlays, side, image, plucker_check(p, 2, 1, 1)


def test_weight_witness_renders_the_uncovered_monomials(monkeypatch):
    # A swap that sends every overlay to one fixed image fails the weight
    # stage wherever an overlay's weight differs from the image's.
    table, overlays, side, image, rep = _one_image(monkeypatch)
    br, rr = table.blue.region, table.red.region

    def weight(regions, overlay):
        blue, red = (decode(br.poset, uncovered_sum([masks], region.mask))
                     for region, masks in zip(regions, overlay))
        return str(blue * red)

    image_regions = [plan.region for plan in table.sides[side]]
    want = [(_edge_colors(br, b, rr, r), weight(image_regions, image), weight((br, rr), (b, r)))
            for b, r in overlays if weight((br, rr), (b, r)) != weight(image_regions, image)]
    got = [(w["overlay"], w["observed"], w["expected"]) for w in rep.witnesses
           if w["stage"] == "weight"]
    assert want and got == want


def test_a_swap_that_is_not_injective_fails_the_round_trip(monkeypatch):
    # A swap that sends every overlay to one image is not injective.  unswap
    # gives the first overlay back from it, so every other overlay fails the
    # round trip, in order, with no image kept.
    table, overlays, _, _, rep = _one_image(monkeypatch)
    br, rr = table.blue.region, table.red.region
    assert not rep.passed and rep.trials == len(overlays) > 1
    assert [w["overlay"] for w in rep.witnesses if w["stage"] == "round-trip"] == \
        [_edge_colors(br, b, rr, r) for b, r in overlays[1:]]


# The reference bijection: colored edges as (lower, upper) vertex tuples in
# dicts and Counters, with per-instance bookkeeping.  It shares no edge code
# with bounce.py, whose bitmask swap must agree with it on every overlay.  It
# works on (blue, red) pairs of families given by their vertices.

def _validate_family(region, paths):
    if len(paths) != region.k:
        raise MalformedOverlay(f"expected {region.k} paths, got {len(paths)}")
    members, seen = set(region.poset.points(region.mask)), set()
    for l, p in enumerate(paths):
        if p[0] != region.sources[l] or p[-1] != region.sinks[l]:
            raise MalformedOverlay(f"path {l} endpoints do not match")
        for v in p:
            if v not in members:
                raise MalformedOverlay(f"vertex {v} outside region")
            if v in seen:
                raise MalformedOverlay(f"vertex {v} shared between paths")
            seen.add(v)
    return Family(region, paths)


def _edges(path):
    return zip(path, path[1:])


def _edge_maps(paths):
    up, down = {}, {}
    for p in paths:
        for a, b in _edges(p):
            up[a] = b
            down[b] = a
    return up, down


def _traverse(start, up_map, down_map, up_color, down_color, used):
    v = start
    edges = []

    def step(upward):
        nonlocal v
        for up in (not upward, upward):
            w = up_map.get(v) if up else down_map.get(v)
            e = (up_color, v, w) if up else (down_color, w, v)
            if w is not None and e not in used:
                used.add(e)
                edges.append(e)
                v = w
                return up
        return None

    going_up = True
    while going_up is not None:
        going_up = step(going_up)
    return v, edges


def _decompose(blue, red):
    br = blue.region
    starts = (br.sources[0], br.sources[-1])
    if blue.paths[0][1][0] == blue.paths[0][0][0]:  # the leftmost path starts north
        starts = starts[::-1]
    blue_up, _ = _edge_maps(blue.paths)
    _, red_down = _edge_maps(red.paths)
    used = set()
    vertical = horizontal = v_start = None
    for start in starts:
        term, edges = _traverse(start, blue_up, red_down, "blue", "red", used)
        if edges and term in br.sinks:
            assert vertical is None
            vertical, v_start = edges, start
        else:
            assert horizontal is None and (not edges or sum(term) == br.m + br.n + br.k)
            horizontal = edges
    _, u0, w0 = vertical[0]
    step = (w0[0] - u0[0], w0[1] - u0[1])
    side, = [name for name, (src, blue_step, _) in _SIDES.items()
             if v_start == br.sources[src] and step == blue_step]
    twigs = tuple((p[0], p[1]) for p in blue.paths[1:-1])
    return BounceDecomposition(tuple(vertical), tuple(horizontal), twigs, side)


def _family_from_edges(edges, region):
    up, indeg = {}, Counter()
    for u, w in edges:
        if u in up:
            raise MalformedOverlay(f"two edges leave {u}")
        up[u] = w
        indeg[w] += 1
        if indeg[w] > 1:
            raise MalformedOverlay(f"two edges enter {w}")
    paths = []
    consumed = 0
    for l, src in enumerate(region.sources):
        verts = [src]
        while verts[-1] in up:
            verts.append(up[verts[-1]])
            consumed += 1
        if verts[-1] != region.sinks[l]:
            raise MalformedOverlay(f"path from {src} ends at {verts[-1]}")
        paths.append(tuple(verts))
    if consumed != len(edges):
        raise MalformedOverlay("leftover edges after path reconstruction")
    return _validate_family(region, tuple(paths))


def _edge_counts(fam):
    return Counter(e for p in fam.paths for e in _edges(p))


def _flip(counts, edge, frm_color):
    blue, red = counts
    frm, to = (blue, red) if frm_color == "blue" else (red, blue)
    if frm[edge] <= 0:
        raise MalformedOverlay(f"edge {edge} carries no {frm_color} instance to flip")
    frm[edge] -= 1
    to[edge] += 1


def _counts_to_set(counts):
    for e, c in counts.items():
        if c > 1:
            raise MalformedOverlay(f"edge {e} carries a color twice after the swap")
    return {e for e, c in counts.items() if c == 1}


def _reference_swap(blue, red):
    dec = _decompose(blue, red)
    counts = (_edge_counts(blue), _edge_counts(red))
    for color, u, w in dec.horizontal:
        _flip(counts, (u, w), color)
    for e in dec.twigs:
        _flip(counts, e, "blue")
    _, u0, w0 = dec.vertical[0]
    assert counts[0][(u0, w0)] > 0
    counts[0][(u0, w0)] -= 1
    br = blue.region
    _, (bi, bj), (ri, rj) = _SIDES[dec.side]
    blue2 = _family_from_edges(_counts_to_set(counts[0]),
                               br.poset.hexagon(br.m + bi, br.n + bj, br.k))
    red2 = _family_from_edges(_counts_to_set(counts[1]),
                              br.poset.hexagon(br.m + ri, br.n + rj, br.k - 1))
    return dec.side, blue2, red2


def _reference_unswap(side, blue2, red2):
    src, (bi, bj), _ = _SIDES[side]
    br2, rr2 = blue2.region, red2.region
    g, k = br2.poset, br2.k
    m, n = br2.m - bi, br2.n - bj
    v_start = br2.sources[src]
    h_start = rr2.sources[~src] if k >= 2 else None
    blue_up, blue_down = _edge_maps(blue2.paths)
    red_up, red_down = _edge_maps(red2.paths)
    twigs = [(p[0], p[1]) for p, s in zip(red2.paths, rr2.sources) if s != h_start]
    used = {("red", u, w) for u, w in twigs}
    vterm, _ = _traverse(v_start, blue_up, red_down, "blue", "red", used)
    assert vterm in br2.sinks
    hedges = []
    if h_start is not None:
        hterm, hedges = _traverse(h_start, red_up, blue_down, "red", "blue", used)
        assert hterm in br2.sources
    counts = (_edge_counts(blue2), _edge_counts(red2))
    for color, u, w in hedges:
        _flip(counts, (u, w), color)
    for e in twigs:
        _flip(counts, e, "red")
    blue_target = g.hexagon(m, n, k)
    p0, = [p for p in blue_target.sources if p not in rr2.sources]
    counts[0][(p0, v_start)] += 1
    return (_family_from_edges(_counts_to_set(counts[0]), blue_target),
            _family_from_edges(_counts_to_set(counts[1]), g.hexagon(m + 1, n + 1, k - 1)))


def _overlays(poset, i, j, k):
    """The table plucker_check makes for the query (i, j, k), from its six
    corner regions built as it builds them, and the overlays B x R on which
    it runs the bijection; no table and no overlay when B or R is empty."""
    grid = RectPoset(poset.r, poset.s, min(0, i - k), min(0, j - k))
    corners = [corner(i, j, k, *c) for c in _CORNERS]
    regions = [grid.hexagon(m - a - b, n - a - b, order + a + b) if order >= 0 else None
               for (m, n, order, a, b) in corners]
    B, R = (hugging_families(region, a, b) if region else []
            for region, (*_, a, b) in zip(regions, corners[:2]))
    overlays = [(b, r) for b in B for r in R]
    return _table(regions) if overlays else None, overlays


def _reference_masks(fam):
    """A reference family's masks: its cover and its edge masks."""
    return to_masks(fam.region, fam.paths)


def test_bitmask_bijection_matches_the_counter_reference():
    seen = 0
    for (r, s) in SMALL_GRIDS + [(4, 3)]:
        p = RectPoset(r, s)
        for (i, j, k) in _valid_queries(p):
            table, overlays = _overlays(p, i, j, k)
            for b, r in overlays:
                seen += 1
                br, rr = table.blue.region, table.red.region
                blue, red = family(br, b), family(rr, r)
                ref = _decompose(blue, red)
                assert decompose(br, b, rr, r) == \
                    (ref.side, set(ref.vertical), set(ref.horizontal))
                side, blue2, red2 = swap(table, *overlay_masks(br, b, rr, r))
                ref_side, ref_blue2, ref_red2 = _reference_swap(blue, red)
                assert (side, blue2, red2) == \
                    (ref_side, _reference_masks(ref_blue2), _reference_masks(ref_red2))
                # The table's image regions are those the reference derives
                # from the side's steps.
                assert [plan.region for plan in table.sides[side]] == \
                    [ref_blue2.region, ref_red2.region]
                back = unswap(side, table, blue2, red2)
                assert back == tuple(map(_reference_masks,
                                         _reference_unswap(side, ref_blue2, ref_red2)))
    assert seen == 4643


def _spied(monkeypatch, name, change):
    """Rebind bounce.name to the real function with its result passed
    through change(args, result)."""
    real = getattr(bounce, name)
    monkeypatch.setattr(bounce, name, lambda *args: change(args, real(*args)))


def test_a_wrong_red_preimage_fails_the_round_trip(monkeypatch):
    # unswap gives back the right blue family with another red one: every
    # overlay fails the round trip, and nothing else.
    p, (i, j, k) = RectPoset(3, 2), (2, 1, 2)
    table, overlays = _overlays(p, i, j, k)
    br, rr = table.blue.region, table.red.region
    reds = [r for _, r in overlays]
    _spied(monkeypatch, "unswap",
           lambda args, back: (back[0], next(m for m in reds if m != back[1])))
    rep = plucker_check(p, i, j, k)
    assert rep.trials == 36 and len(set(reds)) > 1
    assert [(w["stage"], w["overlay"]) for w in rep.witnesses] == \
        [("round-trip", _edge_colors(br, b, rr, r)) for b, r in overlays]


def test_an_image_on_the_other_side_fails_membership(monkeypatch):
    # swap reports the other side for the same image: no image is among the
    # families of that side, so every overlay fails membership there.
    p, (i, j, k) = RectPoset(3, 3), (3, 3, 2)
    other = {"left": "right", "right": "left"}
    table, overlays = _overlays(p, i, j, k)
    br, rr = table.blue.region, table.red.region
    _spied(monkeypatch, "swap", lambda args, image: (other[image[0]], *image[1:]))
    rep = plucker_check(p, i, j, k)
    sides = [swap(table, *overlay_masks(br, b, rr, r))[0] for b, r in overlays]
    assert rep.trials == 6 and set(sides) == {"left", "right"}
    assert [(w["side"], w["overlay"]) for w in rep.witnesses if w["stage"] == "membership"] == \
        [(other[side], _edge_colors(br, b, rr, r)) for side, (b, r) in zip(sides, overlays)]


@pytest.mark.parametrize("part", [1, 2])
def test_an_image_part_of_no_target_fails_membership(monkeypatch, part):
    # swap keeps the side and one part of its image, but hands back the
    # overlay's own family for the other part (1 blue, 2 red), a family of
    # no image region: each overlay fails membership.
    p, (i, j, k) = RectPoset(3, 3), (3, 3, 2)
    table, overlays = _overlays(p, i, j, k)
    br, rr = table.blue.region, table.red.region
    _spied(monkeypatch, "swap",
           lambda args, image: tuple(args[n] if n == part else x for n, x in enumerate(image)))
    rep = plucker_check(p, i, j, k)
    assert [w["overlay"] for w in rep.witnesses if w["stage"] == "membership"] == \
        [_edge_colors(br, b, rr, r) for b, r in overlays]


def test_an_image_on_a_side_with_no_region_fails_the_swap(monkeypatch):
    # With no left entry in the table, swap raises on every overlay whose
    # image is on the left: plucker_check records each as a swap failure,
    # raises nothing, and runs the right-side overlays as before.
    p, (i, j, k) = RectPoset(3, 3), (3, 3, 2)
    table, overlays = _overlays(p, i, j, k)
    br, rr = table.blue.region, table.red.region
    sides = [swap(table, b, r)[0] for b, r in overlays]
    assert set(sides) == {"left", "right"}
    real = bounce._table

    def without_left(regions):
        table = real(regions)
        return dataclasses.replace(table, sides={**table.sides, "left": None})

    monkeypatch.setattr(bounce, "_table", without_left)
    rep = plucker_check(p, i, j, k)
    assert rep.trials == sides.count("right")
    assert rep.witnesses == [{"stage": "swap", "overlay": _edge_colors(br, b, rr, r),
                              "error": "no left image region"}
                             for side, (b, r) in zip(sides, overlays) if side == "left"]
    with pytest.raises(PreconditionViolated, match="bad side 'up'"):
        unswap("up", table, *swap(table, *overlays[0])[1:])


def test_unswap_on_the_wrong_side_rejects_every_image():
    # Every image on the small grids, unswapped as an image of the other
    # side where that side has image regions: the vertical bounce path from
    # that side's start never reaches the top.
    other = {"left": "right", "right": "left"}
    errors, rejected = set(), 0
    for p in [RectPoset(r, s) for r, s in SMALL_GRIDS]:
        for (i, j, k) in _valid_queries(p):
            table, overlays = _overlays(p, i, j, k)
            for b, r in overlays:
                side, *image = swap(table, b, r)
                if table.sides[other[side]] is None:
                    continue
                with pytest.raises(MalformedOverlay) as e:
                    unswap(other[side], table, *image)
                errors.add(str(e.value))
                rejected += 1
    assert errors == {"vertical bounce path does not reach the top"} and rejected > 1000


def _geometry_error(table, side):
    """The error of unswap's two checks of the truncated source, by points:
    the one source of the table's blue region that is no source of the
    side's red image region, one east or north step below the side's
    vertical start; None when both hold."""
    src = _SIDES[side][0]
    blue_image, red_image = (plan.region for plan in table.sides[side])
    missing = [p for p in table.blue.region.sources if p not in red_image.sources]
    if len(missing) != 1:
        return "cannot locate the truncated source position"
    p0, v = missing[0], blue_image.sources[src]
    if (v[0] - p0[0], v[1] - p0[1]) not in ((1, 0), (0, 1)):
        return f"{p0} is not adjacent below {v}"
    return None


def test_unswap_checks_the_truncated_source_as_the_points_do():
    # Tables plucker_check never makes: the sides' entries exchanged, or
    # R's plan in place of the side's red image plan.  On every image of
    # the small grids and of a grid with negative lower bounds, unswap
    # raises the error of the point reference above, or passes both checks
    # where the reference does.
    geometry = ("cannot locate", "not adjacent")
    seen = Counter()
    for p in [RectPoset(r, s) for r, s in SMALL_GRIDS] + [RectPoset(3, 2, -2, -1)]:
        for (i, j, k) in _valid_queries(RectPoset(p.r, p.s)):
            table, overlays = _overlays(p, i, j, k)
            for b, r in overlays:
                side, *image = swap(table, b, r)
                exchanged = dataclasses.replace(
                    table, sides={"left": table.sides["right"], "right": table.sides["left"]})
                red_is_r = dataclasses.replace(
                    table, sides={side: (table.sides[side][0], table.red)})
                for t in (table, exchanged, red_is_r):
                    if t.sides[side] is None:
                        continue
                    want = _geometry_error(t, side)
                    try:
                        unswap(side, t, *image)
                        got = None
                    except MalformedOverlay as e:
                        got = str(e) if any(g in str(e) for g in geometry) else None
                    assert got == want, (p, i, j, k, side)
                    seen[next((g for g in geometry if want and g in want), None)] += 1
    assert all(seen[g] for g in (None, *geometry))


def test_a_start_above_a_column_top_is_not_adjacent():
    # On 2x2 the bit of (1, 0) follows the bit of (0, 2), the top of the
    # column before it, but (1, 0) is no step above (0, 2).
    g = RectPoset(2, 2)

    def plan(*sources):
        return _plan(Region(g, 0, 0, len(sources), g.mask(g.members()), sources, sources))

    table = _Table(plan((0, 2)), plan(), {"left": (plan((1, 0)), plan()), "right": None})
    assert table.sides["left"][0].sources[0] == table.blue.sources[0] << 1
    want = _geometry_error(table, "left")
    assert want == "(0, 2) is not adjacent below (1, 0)"
    with pytest.raises(MalformedOverlay, match=rf"^{re.escape(want)}$"):
        unswap("left", table, (0, 0, 0), (0, 0, 0))


def test_masks_name_each_family_and_walk_back_to_its_paths():
    # On every hexagon region of the grids up to 5x5, and of one grid with
    # negative lower bounds, each family's (cover, east, north) masks are
    # distinct, and walking the edge bits from the sources gives back the
    # reference's paths and the family's cover.
    grids = [RectPoset(r, s) for r in range(1, 6) for s in range(1, 6)] + [RectPoset(3, 2, -2, -1)]
    families = 0
    for g in grids:
        for region in regions(g):
            masks = enum_nilp(region)
            assert len(set(masks)) == len(masks)
            walked = [family(region, m) for m in masks]
            assert [f.paths for f in walked] == reference_nilp(region)
            assert list(map(_reference_masks, walked)) == masks
            families += len(masks)
    assert families > 10 ** 4


def _colors(region, masks):
    return [[*m[1:], 0, 0] for m in masks], (_plan(region), _plan(region))


def test_rebuild_rejects_each_malformed_image():
    # Two copies of one family of a region (so the red color here is a
    # family of the same region): each change to the edges of the blue copy
    # breaks one rule that _rebuild checks.
    region = RectPoset(3, 3).hexagon(0, 0, 2)
    fam = enum_nilp(region)[4]
    colors, targets = _colors(region, [fam] * 2)
    assert _rebuild(colors, targets) == (fam,) * 2
    g = region.poset
    bits = member_bits(g)
    path0 = family(region, fam).paths[0]
    u2, v2 = path0[-2:]  # the last edge of path 0
    d2 = v2[1] - u2[1]

    def rejects(change, message):
        colors, targets = _colors(region, [fam] * 2)
        change(colors[0])
        with pytest.raises(MalformedOverlay, match=message):
            _rebuild(colors, targets)

    def add_twice(c):
        c[d2 + 2] |= bits[u2]
    rejects(add_twice, r"edge \(\(.*\)\) carries a color twice after the swap")

    def add_other_direction(c):
        c[1 - d2] |= bits[u2]
    rejects(add_other_direction, rf"two edges leave \({u2[0]}, {u2[1]}\)")

    def drop_last(c):
        c[d2] ^= bits[u2]
    rejects(drop_last, rf"path from \({path0[0][0]}, "
                       rf"{path0[0][1]}\) ends at \({u2[0]}, {u2[1]}\), "
                       rf"expected \({v2[0]}, {v2[1]}\)")

    # A free edge into the sink of path 0 from its other side.
    into = (v2[0] - d2, v2[1] - (1 - d2))
    assert into not in path0

    def add_entering(c):
        c[1 - d2] |= bits[into]
    rejects(add_entering, rf"two edges enter \({v2[0]}, {v2[1]}\)")

    # An edge between two points no path covers, touching no path.
    free = next((p, e) for p in g.members() for e in (0, 1)
                if (q := (p[0] + 1 - e, p[1] + e)) in g.points(region.mask)
                and not (bits[p] | bits[q]) & fam[0])

    def add_leftover(c):
        c[free[1]] |= bits[free[0]]
    rejects(add_leftover, "leftover edges after path reconstruction")


def _walk_rebuild(colors, targets):
    """The image check by walks, the reference for _rebuild's mask
    identities: the same three checks, then a walk along the edge bits from
    each source to its sink, and a count of the edges against the region's."""
    out_masks = []
    for (east, north, east2, north2), plan in zip(colors, targets):
        g, region = plan.region.poset, plan.region
        w = g.width
        if east2 | north2:
            raise MalformedOverlay(f"edge {_edge(g, 0 if east2 else 1, east2 or north2)} "
                                   f"carries a color twice after the swap")
        if east & north:
            raise MalformedOverlay(f"two edges leave {_point(g, east & north)}")
        if (east << w) & (north << 1):
            raise MalformedOverlay(f"two edges enter {_point(g, (east << w) & (north << 1))}")
        out = east | north
        for src, snk in zip(plan.sources, plan.sinks):
            v = src
            while v & out:
                v = v << w if v & east else v << 1
            if v != snk:
                raise MalformedOverlay(f"path from {_point(g, src)} ends at {_point(g, v)}, "
                                       f"expected {_point(g, snk)}")
        # Walks from distinct sources to distinct sinks share no edge, so
        # they took the region's number of edges.
        if out.bit_count() != sum(sum(t) - sum(u) for u, t in zip(region.sources, region.sinks)):
            raise MalformedOverlay("leftover edges after path reconstruction")
        out_masks.append((out | plan.sink_mask, east, north))
    return out_masks[0], out_masks[1]


def _outcome(rebuild, colors, targets):
    try:
        return rebuild(colors, targets)
    except MalformedOverlay as e:
        return str(e)


def test_rebuild_identities_agree_with_the_walk():
    # On every hexagon region of the grids up to 4x4, and of one grid with
    # negative lower bounds, two copies of each family, unchanged or with
    # one east or north edge of the grid added to or dropped from one copy:
    # _rebuild and the walk both accept with the same masks, or both raise
    # the same message.
    grids = [RectPoset(r, s) for r in range(5) for s in range(5)] + [RectPoset(3, 2, -2, -1)]
    one_rank = rejected = 0
    for g in grids:
        bits = member_bits(g)
        edges = [(d, bits[p]) for p in g.members() for d in (0, 1)
                 if g.contains((p[0] + 1 - d, p[1] + d))]
        for region in regions(g):
            fams = enum_nilp(region)
            if not fams:
                continue
            one_rank += region.sources == region.sinks
            targets = (_plan(region), _plan(region))
            for fam in fams:
                copy = [*fam[1:], 0, 0]
                assert _rebuild([copy, copy], targets) == (fam,) * 2
                for c in (0, 1):
                    for d, b in edges:
                        colors = [list(copy), list(copy)]
                        colors[c][d] ^= b
                        want = _outcome(_walk_rebuild, colors, targets)
                        assert _outcome(_rebuild, colors, targets) == want, (region, colors)
                        rejected += isinstance(want, str)
    assert one_rank > 0 and rejected > 10 ** 5
