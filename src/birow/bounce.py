"""The color-swapping bijection behind the Plucker-like phi identities.

A colored overlay superimposes a blue path family of order k based at
(i-k, j-k) and a red family of order k-1 based at (i-k+1, j-k+1).  Bounce
paths traverse blue edges upward and red edges downward, reversing whenever
possible and consuming each colored edge instance at most once.  Swapping
colors along the horizontal bounce path and the twigs, exchanging the
bottom endpoints, and truncating the vertical path by its bottommost edge
produces a pair of families with bases skewed left or right; the procedure
is reversible.

Each color's edges are two masks on the grid's ``point_bits`` layout,
``east`` and ``north``, holding the bit of each edge's lower vertex: with
W = s - jmin + 1 the east neighbour of bit b is b << W and the north
neighbour b << 1.  A flip may hand a color an edge it already holds, so a
color under a swap also keeps the mask of edges it holds twice.

The boundary-hugging variant runs the same machinery on an enlarged grid
whose extreme paths are pinned to the leftmost/rightmost routes; weights
only see uncovered points of the original rectangle.  With u a family's
uncovered members inside it, (u_b & u_r, u_b ^ u_r) is an overlay's weight.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .closed_form import corner, mu_phi
from .errors import MalformedOverlay, PreconditionViolated
from .exactnum import Polynomial, avar, monomial
from .grid_poset import GridPoint, RectPoset, Region
from .nilp import (LatticePath, NilpFamily, _disjoint_families, enum_paths, point_bits,
                   uncovered_sum)
from .report import Report

Edge = Tuple[GridPoint, GridPoint]  # (lower vertex, upper vertex)
ColoredEdge = Tuple[str, GridPoint, GridPoint]
Edges = Tuple[int, int]  # one color's (east, north) edge masks
Step = Tuple[bool, int, int]  # (upward, direction: 0 east or 1 north, lower vertex bit)


@dataclass(frozen=True)
class ColoredOverlay:
    blue: NilpFamily
    red: NilpFamily
    # Each color's edge masks, derived from its family.
    blue_edges: Edges = field(compare=False, repr=False)
    red_edges: Edges = field(compare=False, repr=False)

    def edge_colors(self) -> List[ColoredEdge]:
        out: List[ColoredEdge] = []
        for color, fam in (("blue", self.blue), ("red", self.red)):
            for p in fam.paths:
                out.extend((color, a, b) for a, b in p.edges())
        return out

    def key(self):
        return (self.blue.key(), self.red.key())


# For each side: the index of the blue source where the vertical bounce path
# starts, the blue base step (also the vertical path's first step) and the
# red base step, which carry the overlay's base to the skewed pair's bases.
_SIDES = {"left": (0, (1, 0), (0, 1)), "right": (-1, (0, 1), (1, 0))}


@functools.lru_cache(maxsize=None)
def _points(g: RectPoset) -> List[GridPoint]:
    """The grid's points in bit order.  Rebuilt paths take their vertices
    from here, so the image keys a check keeps share one tuple per point."""
    return list(point_bits(g))


def _point(g: RectPoset, bits: int) -> GridPoint:
    """The point of the lowest set bit."""
    return _points(g)[(bits & -bits).bit_length() - 1]


def _edge(g: RectPoset, d: int, bits: int) -> Edge:
    """The direction-d edge whose lower vertex is the lowest set bit."""
    u = _point(g, bits)
    return (u, (u[0] + 1 - d, u[1] + d))


def _mask(g: RectPoset, points) -> int:
    return sum(map(point_bits(g).__getitem__, points))


def _edge_masks(fam: NilpFamily) -> Edges:
    """Validate the family against its region and return its edge masks."""
    region = fam.region
    if len(fam.paths) != region.k:
        raise MalformedOverlay(f"expected {region.k} paths, got {len(fam.paths)}")
    bits = point_bits(region.poset)
    mask, edges = 0, [0, 0]
    for l, p in enumerate(fam.paths):
        if p.vertices[0] != region.sources[l] or p.vertices[-1] != region.sinks[l]:
            raise MalformedOverlay(f"path {l} endpoints {p.vertices[0]}..{p.vertices[-1]} "
                                   f"do not match {region.sources[l]}..{region.sinks[l]}")
        for v in p.vertices:
            if v not in region.members:
                raise MalformedOverlay(f"vertex {v} outside region")
            if mask & bits[v]:
                raise MalformedOverlay(f"vertex {v} shared between paths")
            mask |= bits[v]
        for a, b in p.edges():
            d = b[1] - a[1]
            if d not in (0, 1) or b != (a[0] + 1 - d, a[1] + d):
                raise MalformedOverlay(f"step from {a} to {b} is not a unit step")
            edges[d] |= bits[a]
    return edges[0], edges[1]


def _check_companions(br: Region, rr: Region):
    if (rr.m, rr.n, rr.k) != (br.m + 1, br.n + 1, br.k - 1) or rr.poset != br.poset:
        raise MalformedOverlay("red region is not the (+1,+1) companion of the blue region")


def _traverse(v: int, w: int, up: List[int], down: List[int]) -> Tuple[int, List[Step]]:
    """Bounce traversal from the bit v on a grid of column width w: free
    (east, north) edges of ``up`` upward and of ``down`` downward, reversing
    whenever possible.  Clears the edges taken; returns the end and steps."""
    steps: List[Step] = []
    going_up = True
    while True:
        for upward, d in ((not going_up, 0), (not going_up, 1), (going_up, 0), (going_up, 1)):
            shift = 1 if d else w
            low = v if upward else v >> shift
            free = up if upward else down
            if free[d] & low:
                break
        else:
            return v, steps
        free[d] ^= low
        steps.append((upward, d, low))
        v, going_up = (low << shift if upward else low), upward


def _bounce(o: ColoredOverlay) -> Tuple[str, List[Step], List[Step]]:
    """Run the two bounce traversals, from the leftmost source first exactly
    when the leftmost blue path starts east, and classify them: the side,
    the vertical and the horizontal bounce path."""
    br = o.blue.region
    g = br.poset
    bits = point_bits(g)
    starts = (br.sources[0], br.sources[-1])
    if not o.blue_edges[0] & bits[starts[0]]:
        starts = starts[::-1]
    up, down = list(o.blue_edges), list(o.red_edges)
    sinks = _mask(g, br.sinks)
    bottom_rank = br.m + br.n + br.k  # the red-source rank
    vertical = horizontal = v_start = None
    for start in starts:
        term, steps = _traverse(bits[start], g.s - g.jmin + 1, up, down)
        if steps and term & sinks:
            if vertical is not None:
                raise MalformedOverlay("two vertical bounce paths")
            vertical, v_start = steps, start
        elif not steps or sum(_point(g, term)) == bottom_rank:
            if horizontal is not None:
                raise MalformedOverlay("two horizontal bounce paths")
            horizontal = steps
        else:
            raise MalformedOverlay(f"bounce path ends at internal vertex {_point(g, term)}")
    if vertical is None or horizontal is None:
        raise MalformedOverlay("missing vertical or horizontal bounce path")
    upward, d, low = vertical[0]
    if not upward or low != bits[v_start]:
        raise MalformedOverlay("vertical bounce path does not start upward from its source")
    # The truncated vertical must supply the one new blue source of the
    # skewed base: leftmost start stepping east, or rightmost stepping north.
    # The other pairing cannot be completed consistently.
    side = next((name for name, (src, blue_step, _) in _SIDES.items()
                 if v_start == br.sources[src] and (1 - d, d) == blue_step), None)
    if side is None:
        raise MalformedOverlay("vertical bounce path start and direction disagree")
    return side, vertical, horizontal


def _move(g: RectPoset, colors: Dict[str, List[int]], d: int, bits: int, frm, to):
    """Move one instance of each direction-d edge in bits from the color frm
    to the color to (None: outside the overlay).  A color is the masks
    [east, north, east twice, north twice]."""
    if frm:
        c = colors[frm]
        missing = bits & ~c[d]
        if missing:
            raise MalformedOverlay(f"edge {_edge(g, d, missing)} carries no {frm} instance to flip")
        twice = c[d + 2] & bits
        c[d + 2] ^= twice
        c[d] ^= bits ^ twice
    if to:
        c = colors[to]
        c[d + 2] |= c[d] & bits
        c[d] |= bits


def _flip(g: RectPoset, colors, steps: List[Step], twigs: List[int], up: str, down: str):
    """Flip a bounce path walking up upward and down downward, then up's twigs."""
    for upward, d, low in steps:
        _move(g, colors, d, low, *((up, down) if upward else (down, up)))
    for d in (0, 1):
        _move(g, colors, d, twigs[d], up, down)


def _rebuild(colors: Dict[str, List[int]], br: Region, rr: Region) -> ColoredOverlay:
    """The overlay whose blue and red families, of the regions br and rr,
    run along the colors' edges.  Walks that end at their sinks are monotone
    routes inside the region, and no two meet: no vertex has two edges in or
    out, and the sinks are distinct."""
    g = br.poset
    w, bits, points = g.s - g.jmin + 1, point_bits(g), _points(g)
    fams, edges = [], []
    for (east, north, east2, north2), region in zip(colors.values(), (br, rr)):
        if east2 | north2:
            raise MalformedOverlay(f"edge {_edge(g, 0 if east2 else 1, east2 or north2)} "
                                   f"carries a color twice after the swap")
        if east & north:
            raise MalformedOverlay(f"two edges leave {_point(g, east & north)}")
        if (east << w) & (north << 1):
            raise MalformedOverlay(f"two edges enter {_point(g, (east << w) & (north << 1))}")
        out, paths = east | north, []
        for src, snk in zip(region.sources, region.sinks):
            v = bits[src]
            t = v.bit_length() - 1
            verts = [points[t]]
            while v & out:
                v, t = (v << w, t + w) if v & east else (v << 1, t + 1)
                verts.append(points[t])
            if verts[-1] != snk:
                raise MalformedOverlay(f"path from {src} ends at {verts[-1]}, expected {snk}")
            paths.append(LatticePath(tuple(verts)))
        if sum(len(p.vertices) - 1 for p in paths) != bin(out).count("1"):
            raise MalformedOverlay("leftover edges after path reconstruction")
        # Every covered point but a sink is the lower vertex of an edge.
        fams.append(NilpFamily(region, tuple(paths), out | _mask(g, region.sinks)))
        edges.append((east, north))
    return ColoredOverlay(*fams, *edges)


def swap(o: ColoredOverlay) -> Tuple[str, ColoredOverlay]:
    side, vertical, horizontal = _bounce(o)
    br = o.blue.region
    g = br.poset
    colors = {"blue": [*o.blue_edges, 0, 0], "red": [*o.red_edges, 0, 0]}
    twig_sources = _mask(g, br.sources[1:-1])
    _flip(g, colors, horizontal, [e & twig_sources for e in o.blue_edges], "blue", "red")
    _, d, low = vertical[0]
    if not colors["blue"][d] & low:
        raise MalformedOverlay("truncation target edge is not blue")
    _move(g, colors, d, low, "blue", None)
    _, (bi, bj), (ri, rj) = _SIDES[side]
    return side, _rebuild(colors, g.hexagon(br.m + bi, br.n + bj, br.k),
                          g.hexagon(br.m + ri, br.n + rj, br.k - 1))


def unswap(side: str, o2: ColoredOverlay) -> ColoredOverlay:
    if side not in _SIDES:
        raise PreconditionViolated(f"bad side {side!r}")
    src, (bi, bj), (ri, rj) = _SIDES[side]
    br2, rr2 = o2.blue.region, o2.red.region
    g, k = br2.poset, br2.k
    m, n = br2.m - bi, br2.n - bj
    if (rr2.m, rr2.n, rr2.k) != (m + ri, n + rj, k - 1):
        raise MalformedOverlay("red region base does not match the given side")
    bits, w = point_bits(g), g.s - g.jmin + 1
    v_start = br2.sources[src]
    # The mirror bounce path starts at the red source at the other end.
    h_start = rr2.sources[~src] if k >= 2 else None
    twig_sources = _mask(g, [s for s in rr2.sources if s != h_start])
    twigs = [e & twig_sources for e in o2.red_edges]
    blue_free, red_free = list(o2.blue_edges), list(o2.red_edges)
    vterm, vsteps = _traverse(bits[v_start], w, blue_free, red_free)
    if not vsteps or not vterm & _mask(g, br2.sinks):
        raise MalformedOverlay("vertical bounce path does not reach the top")
    hsteps: List[Step] = []
    if h_start is not None:
        hterm, hsteps = _traverse(bits[h_start], w, red_free, blue_free)
        if not hterm & _mask(g, br2.sources):
            raise MalformedOverlay(f"mirror bounce path ends at {_point(g, hterm)}")
    colors = {"blue": [*o2.blue_edges, 0, 0], "red": [*o2.red_edges, 0, 0]}
    _flip(g, colors, hsteps, twigs, "red", "blue")
    blue_target = g.hexagon(m, n, k)
    missing = [p for p in blue_target.sources if p not in set(rr2.sources)]
    if len(missing) != 1:
        raise MalformedOverlay("cannot locate the truncated source position")
    p0 = missing[0]
    if (v_start[0] - p0[0], v_start[1] - p0[1]) not in ((1, 0), (0, 1)):
        raise MalformedOverlay(f"{p0} is not adjacent below {v_start}")
    _move(g, colors, v_start[1] - p0[1], bits[p0], None, "blue")
    return _rebuild(colors, blue_target, g.hexagon(m + 1, n + 1, k - 1))


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


def _render_weight(g: RectPoset, twice: int, once: int) -> str:
    """The weight, the points of ``once`` and the squares of those of
    ``twice``, as the monomial of A-variables over its points."""
    pairs = [(avar(*_point(g, 1 << b)), e) for mask, e in ((once, 1), (twice, 2))
             for b in range(mask.bit_length()) if mask >> b & 1]
    return str(Polynomial.from_dict({monomial(pairs): 1}))


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

    # A factor's families sit on its unshifted base (i-k+eps_i, j-k+eps_j)
    # with a + b pinned paths, so the grid reaches down to (i-k, j-k).
    grid = RectPoset(poset.r, poset.s, min(0, i - k), min(0, j - k))
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

    @functools.lru_cache(maxsize=None)
    def inside(region: Region) -> int:
        return _mask(region.poset, _inside(region, poset))

    # The regions and each family of B and R are validated once; each family
    # is keyed and weighed once.
    if B and R:
        _check_companions(B[0].region, R[0].region)
    reds = [(r, r.key(), _edge_masks(r), inside(r.region) & ~r.mask) for r in R]
    left_keys = {(b.key(), r.key()) for b in L1 for r in L2}
    right_keys = {(b.key(), r.key()) for b in R1 for r in R2}
    images = set()
    for b in B:
        b_key, b_edges, u_b = b.key(), _edge_masks(b), inside(b.region) & ~b.mask
        for rfam, r_key, r_edges, u_r in reds:
            o = ColoredOverlay(b, rfam, b_edges, r_edges)
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
            v_b, v_r = (inside(f.region) & ~f.mask for f in (o2.blue, o2.red))
            w_in, w_out = (u_b & u_r, u_b ^ u_r), (v_b & v_r, v_b ^ v_r)
            if w_in != w_out:
                rep.fail({"stage": "weight", "overlay": o.edge_colors(),
                          "observed": _render_weight(grid, *w_out),
                          "expected": _render_weight(grid, *w_in)})
            try:
                back = unswap(side, o2)
                if back.key() != (b_key, r_key):
                    rep.fail({"stage": "round-trip", "overlay": o.edge_colors()})
            except MalformedOverlay as e:
                rep.fail({"stage": "unswap", "overlay": o.edge_colors(), "error": str(e)})
    return rep
