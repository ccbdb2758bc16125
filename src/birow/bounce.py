"""The color-swapping bijection behind the Plucker-like phi identities.

A colored overlay superimposes a blue path family of order k based at
(i-k, j-k) and a red family of order k-1 based at (i-k+1, j-k+1).  Bounce
paths traverse blue edges upward and red edges downward, reversing whenever
possible and consuming each colored edge instance at most once.  Swapping
colors along the horizontal bounce path and the twigs, exchanging the
bottom endpoints, and truncating the vertical path by its bottommost edge
produces a pair of families with bases skewed left or right; the procedure
is reversible.

The boundary-hugging variant runs the same machinery on an enlarged grid
whose extreme paths are pinned to the leftmost/rightmost routes; weights
only see uncovered points of the original rectangle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .closed_form import corner, mu_phi
from .errors import MalformedOverlay, PreconditionViolated
from .exactnum import Polynomial, avar, monomial
from .grid_poset import GridPoint, RectPoset, Region
from .nilp import (LatticePath, NilpFamily, _disjoint_families, enum_paths, point_bits,
                   uncovered_sum)
from .report import Report

Edge = Tuple[GridPoint, GridPoint]  # (lower vertex, upper vertex)
ColoredEdge = Tuple[str, GridPoint, GridPoint]


@dataclass(frozen=True)
class ColoredOverlay:
    blue: NilpFamily
    red: NilpFamily

    def edge_colors(self) -> List[ColoredEdge]:
        out: List[ColoredEdge] = []
        for color, fam in (("blue", self.blue), ("red", self.red)):
            for p in fam.paths:
                out.extend((color, a, b) for a, b in p.edges())
        return out

    def key(self):
        return (self.blue.key(), self.red.key())


@dataclass(frozen=True)
class BounceDecomposition:
    vertical: Tuple[ColoredEdge, ...]
    horizontal: Tuple[ColoredEdge, ...]
    twigs: Tuple[Edge, ...]
    side: str  # "left" or "right"


# For each side: the index of the blue source where the vertical bounce path
# starts, the blue base step (also the vertical path's first step) and the
# red base step, which carry the overlay's base to the skewed pair's bases.
_SIDES = {"left": (0, (1, 0), (0, 1)), "right": (-1, (0, 1), (1, 0))}


def _validate_family(region: Region, paths: Tuple[LatticePath, ...]) -> NilpFamily:
    if len(paths) != region.k:
        raise MalformedOverlay(f"expected {region.k} paths, got {len(paths)}")
    bits = point_bits(region.poset)
    mask = 0
    for l, p in enumerate(paths):
        if p.vertices[0] != region.sources[l] or p.vertices[-1] != region.sinks[l]:
            raise MalformedOverlay(f"path {l} endpoints {p.vertices[0]}..{p.vertices[-1]} "
                                   f"do not match {region.sources[l]}..{region.sinks[l]}")
        for v in p.vertices:
            if v not in region.members:
                raise MalformedOverlay(f"vertex {v} outside region")
            if mask & bits[v]:
                raise MalformedOverlay(f"vertex {v} shared between paths")
            mask |= bits[v]
    return NilpFamily(region, paths, mask)


def make_overlay(blue: NilpFamily, red: NilpFamily) -> ColoredOverlay:
    br, rr = blue.region, red.region
    if (rr.m, rr.n, rr.k) != (br.m + 1, br.n + 1, br.k - 1) or rr.poset != br.poset:
        raise MalformedOverlay("red region is not the (+1,+1) companion of the blue region")
    _validate_family(br, blue.paths)
    _validate_family(rr, red.paths)
    return ColoredOverlay(blue, red)


def _edge_maps(paths: Tuple[LatticePath, ...]) -> Tuple[Dict[GridPoint, GridPoint],
                                                        Dict[GridPoint, GridPoint]]:
    up: Dict[GridPoint, GridPoint] = {}
    down: Dict[GridPoint, GridPoint] = {}
    for p in paths:
        for a, b in p.edges():
            up[a] = b
            down[b] = a
    return up, down


def _traverse(start: GridPoint, up_map, down_map, up_color: str, down_color: str,
              used: Set[ColoredEdge]) -> Tuple[GridPoint, List[ColoredEdge]]:
    """Bounce traversal: up_color edges upward, down_color edges downward,
    reversing whenever an unused edge of the other kind is available."""
    v = start
    edges: List[ColoredEdge] = []

    def step(upward: bool):
        """Take an unused edge at v, in the reversing direction first and
        then in the current one; return the direction taken, or None."""
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


def decompose(o: ColoredOverlay) -> BounceDecomposition:
    """Run the two bounce traversals, from the leftmost source first exactly
    when the leftmost blue path starts east, and classify them."""
    br = o.blue.region
    starts = (br.sources[0], br.sources[-1])
    if not o.blue.paths[0].steps().startswith("R"):
        starts = starts[::-1]
    blue_up, _ = _edge_maps(o.blue.paths)
    _, red_down = _edge_maps(o.red.paths)
    used: Set[ColoredEdge] = set()
    sinks = set(br.sinks)
    bottom_rank = br.m + br.n + br.k  # the red-source rank
    vertical = horizontal = v_start = None
    for start in starts:
        term, edges = _traverse(start, blue_up, red_down, "blue", "red", used)
        if edges and term in sinks:
            if vertical is not None:
                raise MalformedOverlay("two vertical bounce paths")
            vertical, v_start = edges, start
        elif not edges or term[0] + term[1] == bottom_rank:
            if horizontal is not None:
                raise MalformedOverlay("two horizontal bounce paths")
            horizontal = edges
        else:
            raise MalformedOverlay(f"bounce path ends at internal vertex {term}")
    if vertical is None or horizontal is None:
        raise MalformedOverlay("missing vertical or horizontal bounce path")

    c0, u0, w0 = vertical[0]
    if c0 != "blue" or u0 != v_start:
        raise MalformedOverlay("vertical bounce path does not start upward from its source")
    # The truncated vertical must supply the one new blue source of the
    # skewed base: leftmost start stepping east, or rightmost stepping north.
    # The other pairing cannot be completed consistently.
    step = (w0[0] - u0[0], w0[1] - u0[1])
    side = next((name for name, (src, blue_step, _) in _SIDES.items()
                 if v_start == br.sources[src] and step == blue_step), None)
    if side is None:
        raise MalformedOverlay("vertical bounce path start and direction disagree")

    twigs = tuple((p.vertices[0], p.vertices[1]) for p in o.blue.paths[1:-1])
    return BounceDecomposition(tuple(vertical), tuple(horizontal), twigs, side)


def _family_from_edges(edges: Set[Edge], region: Region) -> NilpFamily:
    up: Dict[GridPoint, GridPoint] = {}
    indeg: Dict[GridPoint, int] = {}
    for u, w in edges:
        if u in up:
            raise MalformedOverlay(f"two edges leave {u}")
        up[u] = w
        indeg[w] = indeg.get(w, 0) + 1
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
            raise MalformedOverlay(f"path from {src} ends at {verts[-1]}, "
                                   f"expected {region.sinks[l]}")
        paths.append(LatticePath(tuple(verts)))
    if consumed != len(edges):
        raise MalformedOverlay("leftover edges after path reconstruction")
    return _validate_family(region, tuple(paths))


def _edge_counts(fam: NilpFamily) -> Counter:
    return Counter((a, b) for p in fam.paths for a, b in p.edges())


def _flip(counts: Tuple[Counter, Counter], edge: Edge, frm_color: str):
    """Move one instance of the edge from one color to the other.  A single
    geometric edge may carry both colors (a doubled edge), so the bookkeeping
    is per instance."""
    blue, red = counts
    frm, to = (blue, red) if frm_color == "blue" else (red, blue)
    if frm[edge] <= 0:
        raise MalformedOverlay(f"edge {edge} carries no {frm_color} instance to flip")
    frm[edge] -= 1
    to[edge] += 1


def _counts_to_set(counts: Counter) -> Set[Edge]:
    for e, c in counts.items():
        if c > 1:
            raise MalformedOverlay(f"edge {e} carries a color twice after the swap")
    return {e for e, c in counts.items() if c == 1}


def swap(o: ColoredOverlay) -> Tuple[str, ColoredOverlay]:
    dec = decompose(o)
    blue_edges = _edge_counts(o.blue)
    red_edges = _edge_counts(o.red)

    for color, u, w in dec.horizontal:
        _flip((blue_edges, red_edges), (u, w), color)
    for e in dec.twigs:
        _flip((blue_edges, red_edges), e, "blue")

    _, u0, w0 = dec.vertical[0]
    if blue_edges[(u0, w0)] <= 0:
        raise MalformedOverlay("truncation target edge is not blue")
    blue_edges[(u0, w0)] -= 1

    br = o.blue.region
    _, (bi, bj), (ri, rj) = _SIDES[dec.side]
    br2 = br.poset.hexagon(br.m + bi, br.n + bj, br.k)
    rr2 = br.poset.hexagon(br.m + ri, br.n + rj, br.k - 1)
    blue2 = _family_from_edges(_counts_to_set(blue_edges), br2)
    red2 = _family_from_edges(_counts_to_set(red_edges), rr2)
    return dec.side, ColoredOverlay(blue2, red2)


def unswap(side: str, o2: ColoredOverlay) -> ColoredOverlay:
    if side not in _SIDES:
        raise PreconditionViolated(f"bad side {side!r}")
    src, (bi, bj), (ri, rj) = _SIDES[side]
    br2, rr2 = o2.blue.region, o2.red.region
    g, k = br2.poset, br2.k
    m, n = br2.m - bi, br2.n - bj
    if (rr2.m, rr2.n, rr2.k) != (m + ri, n + rj, k - 1):
        raise MalformedOverlay("red region base does not match the given side")
    v_start = br2.sources[src]
    # The mirror bounce path starts at the red source at the other end.
    h_start = rr2.sources[~src] if k >= 2 else None

    blue_up, blue_down = _edge_maps(o2.blue.paths)
    red_up, red_down = _edge_maps(o2.red.paths)
    twigs = [(p.vertices[0], p.vertices[1])
             for p, s in zip(o2.red.paths, rr2.sources) if s != h_start]
    # Twig edges hang below the blue sources; reserve them so neither bounce
    # path can descend one and terminate at the wrong rank.
    used: Set[ColoredEdge] = {("red", u, w) for u, w in twigs}
    vterm, vedges = _traverse(v_start, blue_up, red_down, "blue", "red", used)
    if not vedges or vterm not in set(br2.sinks):
        raise MalformedOverlay("vertical bounce path does not reach the top")
    if h_start is not None:
        hterm, hedges = _traverse(h_start, red_up, blue_down, "red", "blue", used)
        if hterm not in set(br2.sources):
            raise MalformedOverlay(f"mirror bounce path ends at {hterm}")
    else:
        hedges = []

    blue_edges = _edge_counts(o2.blue)
    red_edges = _edge_counts(o2.red)

    for color, u, w in hedges:
        _flip((blue_edges, red_edges), (u, w), color)
    for e in twigs:
        _flip((blue_edges, red_edges), e, "red")

    blue_target = g.hexagon(m, n, k)
    missing = [p for p in blue_target.sources if p not in set(rr2.sources)]
    if len(missing) != 1:
        raise MalformedOverlay("cannot locate the truncated source position")
    p0 = missing[0]
    if (v_start[0] - p0[0], v_start[1] - p0[1]) not in ((1, 0), (0, 1)):
        raise MalformedOverlay(f"{p0} is not adjacent below {v_start}")
    blue_edges[(p0, v_start)] += 1

    blue1 = _family_from_edges(_counts_to_set(blue_edges), blue_target)
    red1 = _family_from_edges(_counts_to_set(red_edges), g.hexagon(m + 1, n + 1, k - 1))
    return ColoredOverlay(blue1, red1)


def _forced_path(region: Region, l: int, leftmost: bool) -> LatticePath:
    src, snk = region.sources[l], region.sinks[l]
    verts = [src]
    if leftmost:
        while verts[-1][0] < snk[0]:
            verts.append((verts[-1][0] + 1, verts[-1][1]))
        while verts[-1][1] < snk[1]:
            verts.append((verts[-1][0], verts[-1][1] + 1))
    else:
        while verts[-1][1] < snk[1]:
            verts.append((verts[-1][0], verts[-1][1] + 1))
        while verts[-1][0] < snk[0]:
            verts.append((verts[-1][0] + 1, verts[-1][1]))
    for v in verts:
        if v not in region.members:
            raise MalformedOverlay(f"forced route leaves the region at {v}")
    return LatticePath(tuple(verts))


def hugging_families(grid: RectPoset, m: int, n: int, k: int, c: int, d: int
                     ) -> List[NilpFamily]:
    """All (c,d)-boundary-hugging families: the first c paths pinned to the
    leftmost routes, the last d to the rightmost; empty when c + d > k or
    k < 0."""
    if k < 0 or c + d > k:
        return []
    region = grid.hexagon(m, n, k)
    forced: Dict[int, LatticePath] = {}
    for l in range(c):
        forced[l] = _forced_path(region, l, leftmost=True)
    for l in range(k - d, k):
        forced[l] = _forced_path(region, l, leftmost=False)
    return _disjoint_families(region, [
        [forced[l]] if l in forced else enum_paths(region, region.sources[l], region.sinks[l])
        for l in range(k)])


def _inside(region: Region, ambient: RectPoset) -> List[GridPoint]:
    """Region members inside the ambient rectangle."""
    return [p for p in region.members
            if 0 <= p[0] <= ambient.r and 0 <= p[1] <= ambient.s]


def _uncovered(fam: NilpFamily, ambient: RectPoset) -> Counter:
    """The family's weight: the region members inside the ambient rectangle
    that it leaves uncovered, as a multiset, so that weights compare and
    multiply without a polynomial."""
    bits = point_bits(fam.region.poset)
    return Counter(p for p in _inside(fam.region, ambient) if not fam.mask & bits[p])


def _render_weight(weight: Counter) -> str:
    """The weight as the monomial of A-variables over its points."""
    return str(Polynomial.from_dict({monomial((avar(*p), e) for p, e in weight.items()): 1}))


# Corners (eps_i, eps_j, delta) of phi000 phi111 = phi100 phi011 + phi010 phi101:
# the overlay's blue and red, then the left-skewed pair, then the right-skewed.
_CORNERS = ((0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 1, 1), (0, 1, 0), (1, 0, 1))


def plucker_check(poset: RectPoset, i: int, j: int, k: int) -> Report:
    """Verify the Plucker-like phi identity for the query (i, j, k), both as
    a symbolic polynomial identity and via the color-swapping bijection."""
    M = max(k - i, 0) + max(k - j, 0)
    if not (1 <= k <= poset.r + poset.s + 1 and M <= k):
        raise PreconditionViolated(f"need M <= k <= r+s+1, got M={M}, k={k}")
    rep = Report(name=f"plucker r={poset.r} s={poset.s} i={i} j={j} k={k}")

    corners = [corner(i, j, k, *c) for c in _CORNERS]
    phis = [mu_phi(poset, *c) for c in corners]
    lhs = phis[0] * phis[1]
    rhs = phis[2] * phis[3] + phis[4] * phis[5]
    if lhs != rhs:
        rep.fail({"stage": "symbolic", "lhs": str(lhs), "rhs": str(rhs)})

    # A factor's families sit on its unshifted base with a + b pinned paths.
    grid = poset if M == 0 else poset.extended()
    families = [hugging_families(grid, m - a - b, n - a - b, order + a + b, a, b)
                for (m, n, order, a, b) in corners]
    for fams, (ei, ej, delta), expect in zip(families, _CORNERS, phis):
        total = uncovered_sum(fams, _inside(fams[0].region, poset) if fams else [])
        if total != expect:
            rep.fail({"stage": "generating-function", "eps": [ei, ej], "delta": delta,
                      "observed": str(total), "expected": str(expect)})

    B, R, L1, L2, R1, R2 = families
    rep.check(len(B) * len(R) == len(L1) * len(L2) + len(R1) * len(R2),
              {"stage": "cardinality", "lhs": len(B) * len(R),
               "rhs": [len(L1) * len(L2), len(R1) * len(R2)]})

    left_keys = {(b.key(), r.key()) for b in L1 for r in L2}
    right_keys = {(b.key(), r.key()) for b in R1 for r in R2}
    images = set()
    for b in B:
        for rfam in R:
            o = make_overlay(b, rfam)
            try:
                side, o2 = swap(o)
            except MalformedOverlay as e:
                rep.fail({"stage": "swap", "overlay": o.edge_colors(), "error": str(e)})
                continue
            rep.trials += 1
            key = o2.key()
            target = left_keys if side == "left" else right_keys
            if key not in target:
                rep.fail({"stage": "membership", "side": side, "overlay": o.edge_colors()})
            if key in images:
                rep.fail({"stage": "injectivity", "overlay": o.edge_colors()})
            images.add(key)
            w_in = _uncovered(b, poset) + _uncovered(rfam, poset)
            w_out = _uncovered(o2.blue, poset) + _uncovered(o2.red, poset)
            if w_in != w_out:
                rep.fail({"stage": "weight", "overlay": o.edge_colors(),
                          "observed": _render_weight(w_out), "expected": _render_weight(w_in)})
            try:
                back = unswap(side, o2)
                if back.key() != o.key():
                    rep.fail({"stage": "round-trip", "overlay": o.edge_colors()})
            except MalformedOverlay as e:
                rep.fail({"stage": "unswap", "overlay": o.edge_colors(), "error": str(e)})
    return rep
