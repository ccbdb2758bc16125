"""The color-swapping bijection behind the Plucker-like phi identities.

A colored overlay superimposes a blue path family of order k based at
(i-k, j-k) and a red family of order k-1 based at (i-k+1, j-k+1).  Bounce
paths traverse blue edges upward and red edges downward, reversing whenever
possible and consuming each colored edge instance at most once.  Swapping
colors along the horizontal bounce path and the twigs, exchanging the
bottom endpoints, and truncating the vertical path by its bottommost edge
produces a pair of families with bases skewed left or right; the procedure
is reversible.

A family is its masks from enumeration onwards (see ``nilp``): the three
ints ``(cover, east, north)`` on the grid's ``RectPoset.mask`` layout, which
``hugging_families`` returns and ``swap`` and ``unswap`` take and return.
A flip may hand a color an edge it already holds, so a color under a swap
also keeps the mask of edges it holds twice.  A bounce traversal yields the
masks of the edges it took and an image is checked by two mask identities,
with no walk; a region is its mask (``Region.mask``) and its endpoints
become bits once.  Paths are walked only to name the edges of an overlay
in a witness.

The boundary-hugging variant runs the same machinery on an enlarged grid
whose extreme paths are pinned to the leftmost/rightmost routes; weights
only see uncovered points of the original rectangle.  With u a family's
uncovered members inside it, (u_b & u_r, u_b ^ u_r) is an overlay's weight.
The six factors are hexagons of that grid, whose plans each query builds
once into the one table (``_Table``) that ``swap`` and ``unswap`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .closed_form import corner, mu_phi
from .errors import MalformedOverlay, PreconditionViolated
from .exactnum import Polynomial, avar, monomial
from .grid_poset import GridPoint, RectPoset, Region
from .nilp import Masks, _disjoint_families, decode, enum_paths, paths, uncovered_sum
from .report import Report

Edge = Tuple[GridPoint, GridPoint]  # (lower vertex, upper vertex)
ColoredEdge = Tuple[str, GridPoint, GridPoint]
Taken = Tuple[Tuple[int, int], Tuple[int, int]]  # the (east, north) edges taken of up, of down
_NONE: Taken = ((0, 0), (0, 0))  # a traversal that took no edge
# A color under a swap is the masks [east, north, east twice, north twice],
# and the colors are indexed blue 0, red 1.
_BLUE, _RED = 0, 1
_COLOR_NAMES = ("blue", "red")


# For each side: the index of the blue source where the vertical bounce path
# starts, the blue base step (also the vertical path's first step) and the
# red base step, which carry the overlay's base to the skewed pair's bases.
_SIDES = {"left": (0, (1, 0), (0, 1)), "right": (-1, (0, 1), (1, 0))}


def _point(g: RectPoset, bits: int) -> GridPoint:
    """The point of the lowest set bit."""
    return g.point((bits & -bits).bit_length() - 1)


def _edge(g: RectPoset, d: int, bits: int) -> Edge:
    """The direction-d edge whose lower vertex is the lowest set bit."""
    u = _point(g, bits)
    return (u, (u[0] + 1 - d, u[1] + d))


def _edge_colors(br: Region, blue: Masks, rr: Region, red: Masks) -> List[ColoredEdge]:
    """The overlay's edges with their colors, as a witness names them."""
    return [(color, a, b) for color, region, masks in (("blue", br, blue), ("red", rr, red))
            for verts in paths(region, masks) for a, b in zip(verts, verts[1:])]


@dataclass(frozen=True)
class _Plan:
    """A region's constants on its grid's mask layout: the sources and the
    sinks as bits, the points one rank above the sources (where the
    horizontal bounce path of a blue family of the region ends) and the
    twig sources (every source but the first and the last)."""
    region: Region
    sources: Tuple[int, ...]
    sinks: Tuple[int, ...]
    source_mask: int
    sink_mask: int
    above: int
    twigs: int


def _plan(region: Region) -> _Plan:
    g = region.poset
    sources = tuple(1 << g.index(p) for p in region.sources)
    sinks = tuple(1 << g.index(p) for p in region.sinks)
    rank = region.m + region.n + region.k
    above = g.mask((i, rank - i)
                   for i in range(max(g.imin, rank - g.s), min(g.r, rank - g.jmin) + 1))
    return _Plan(region, sources, sinks, sum(sources), sum(sinks), above, sum(sources[1:-1]))


@dataclass(frozen=True)
class _Table:
    """The plans of a Plucker query's six corner regions, made once per
    query: the overlay's blue and red regions (B, R), and for each side the
    blue and red regions of its images, None where either is missing."""
    blue: _Plan
    red: _Plan
    sides: Dict[str, Optional[Tuple[_Plan, _Plan]]]


def _table(regions: List[Optional[Region]]) -> _Table:
    """The table of the regions in ``_CORNERS`` order, B and R present."""
    br, rr, *images = regions
    if (rr.m, rr.n, rr.k) != (br.m + 1, br.n + 1, br.k - 1) or rr.poset != br.poset:
        raise MalformedOverlay("red region is not the (+1,+1) companion of the blue region")
    sides = {side: (_plan(blue), _plan(red)) if blue and red else None
             for side, (blue, red) in zip(_SIDES, (images[:2], images[2:]))}
    return _Table(_plan(br), _plan(rr), sides)


def _traverse(v: int, w: int, up: List[int], down: List[int]) -> Tuple[int, Taken]:
    """Bounce traversal from the bit v on a grid of column width w: free
    (east, north) edges of ``up`` upward and of ``down`` downward, reversing
    whenever possible, east before north.  Clears the edges taken; returns
    the end and the edges taken of up and of down, ``_NONE`` if none."""
    (up_e, up_n), (down_e, down_n) = up, down
    going_up = True
    while True:
        if going_up and down_e & (v >> w):
            v >>= w
            down_e ^= v
            going_up = False
        elif going_up and down_n & (v >> 1):
            v >>= 1
            down_n ^= v
            going_up = False
        elif up_e & v:
            up_e ^= v
            v <<= w
            going_up = True
        elif up_n & v:
            up_n ^= v
            v <<= 1
            going_up = True
        elif down_e & (v >> w):
            v >>= w
            down_e ^= v
        elif down_n & (v >> 1):
            v >>= 1
            down_n ^= v
        else:
            break
    taken = ((up[0] ^ up_e, up[1] ^ up_n), (down[0] ^ down_e, down[1] ^ down_n))
    up[:], down[:] = (up_e, up_n), (down_e, down_n)
    return v, taken


def _bounce(plan: _Plan, blue: Masks, red: Masks) -> Tuple[str, Taken, Taken]:
    """Run the two bounce traversals, from the leftmost source first exactly
    when the leftmost blue path starts east, and classify them: the side and
    the edges the vertical and the horizontal bounce path took.  No edge of
    either color ends at a blue source, so the vertical path's first edge is
    the one it took up out of its source."""
    g = plan.region.poset
    starts = (plan.sources[0], plan.sources[-1])
    if not blue[1] & starts[0]:
        starts = starts[::-1]
    up, down = list(blue[1:]), list(red[1:])
    vertical = horizontal = v_start = None
    for start in starts:
        term, taken = _traverse(start, g.width, up, down)
        if taken != _NONE and term & plan.sink_mask:
            if vertical is not None:
                raise MalformedOverlay("two vertical bounce paths")
            vertical, v_start = taken, start
        elif taken == _NONE or term & plan.above:
            if horizontal is not None:
                raise MalformedOverlay("two horizontal bounce paths")
            horizontal = taken
        else:
            raise MalformedOverlay(f"bounce path ends at internal vertex {_point(g, term)}")
    if vertical is None or horizontal is None:
        raise MalformedOverlay("missing vertical or horizontal bounce path")
    d = next((d for d in (0, 1) if vertical[0][d] & v_start), None)
    if d is None:
        raise MalformedOverlay("vertical bounce path does not start upward from its source")
    # The truncated vertical must supply the one new blue source of the
    # skewed base: leftmost start stepping east, or rightmost stepping north.
    # The other pairing cannot be completed consistently.
    side = next((name for name, (src, blue_step, _) in _SIDES.items()
                 if v_start == plan.sources[src] and (1 - d, d) == blue_step), None)
    if side is None:
        raise MalformedOverlay("vertical bounce path start and direction disagree")
    return side, vertical, horizontal


def _move(g: RectPoset, colors: List[List[int]], d: int, bits: int,
          frm: Optional[int], to: Optional[int]):
    """Move one instance of each direction-d edge in bits from the color frm
    to the color to (None: outside the overlay)."""
    if frm is not None:
        c = colors[frm]
        missing = bits & ~c[d]
        if missing:
            raise MalformedOverlay(f"edge {_edge(g, d, missing)} carries no "
                                   f"{_COLOR_NAMES[frm]} instance to flip")
        twice = c[d + 2] & bits
        c[d + 2] ^= twice
        c[d] ^= bits ^ twice
    if to is not None:
        c = colors[to]
        c[d + 2] |= c[d] & bits
        c[d] |= bits


def _flip(g: RectPoset, colors, taken: Taken, twigs: List[int], up: int, down: int):
    """Flip a bounce path that took the edges taken of the color up upward
    and of the color down downward, then up's twigs.  Each edge instance
    taken was held by its color and is taken once, so the path moves them
    all at once; the colors hold no edge twice before it."""
    cu, cd = colors[up], colors[down]
    for d in (0, 1):
        x, y = taken[0][d], taken[1][d]
        kept_u, kept_d = cu[d] & ~x, cd[d] & ~y
        cu[d], cu[d + 2] = kept_u | y, kept_u & y
        cd[d], cd[d + 2] = kept_d | x, kept_d & x
    for d in (0, 1):
        _move(g, colors, d, twigs[d], up, down)


def _rebuild(colors: List[List[int]], targets: Tuple[_Plan, _Plan]) -> Tuple[Masks, Masks]:
    """The masks of the blue and red families, of the target regions, that
    run along the colors' edges.  With at most one edge out of and into each
    vertex, the edges are vertex-disjoint monotone walks from the points
    with an edge out and none in to those with one in and none out.  These
    are the sources and the sinks (less any source that is its own sink, in
    a one-rank region) exactly when the walks leave every source, cover every
    edge and end at the sinks; disjoint lattice walks cannot cross, so
    source l reaches sink l (Gessel-Viennot).  Walks run only to name a
    failure."""
    out_masks = []
    for (east, north, east2, north2), plan in zip(colors, targets):
        g = plan.region.poset
        if east2 | north2:
            raise MalformedOverlay(f"edge {_edge(g, 0 if east2 else 1, east2 or north2)} "
                                   f"carries a color twice after the swap")
        if east & north:
            raise MalformedOverlay(f"two edges leave {_point(g, east & north)}")
        out, east_in, north_in = east | north, east << g.width, north << 1
        if east_in & north_in:
            raise MalformedOverlay(f"two edges enter {_point(g, east_in & north_in)}")
        into, sources, sinks = east_in | north_in, plan.source_mask, plan.sink_mask
        if out & ~into != sources & ~sinks or into & ~out != sinks & ~sources:
            for src, snk in zip(plan.sources, plan.sinks):
                v = src
                while v & out:
                    v = v << g.width if v & east else v << 1
                if v != snk:
                    raise MalformedOverlay(f"path from {_point(g, src)} ends at {_point(g, v)}, "
                                           f"expected {_point(g, snk)}")
            raise MalformedOverlay("leftover edges after path reconstruction")
        # Every covered point but a sink is the lower vertex of an edge.
        out_masks.append((out | sinks, east, north))
    return out_masks[0], out_masks[1]


def swap(table: _Table, blue: Masks, red: Masks) -> Tuple[str, Masks, Masks]:
    """The image of the overlay of ``blue``, a family of the table's blue
    region, and ``red``, a family of its red region: the side its bases are
    skewed to, and its blue and red masks."""
    plan = table.blue
    side, _, taken = _bounce(plan, blue, red)
    g = plan.region.poset
    colors = [[blue[1], blue[2], 0, 0], [red[1], red[2], 0, 0]]
    _flip(g, colors, taken, [blue[1] & plan.twigs, blue[2] & plan.twigs], _BLUE, _RED)
    # The truncated edge is the vertical path's first: the side's blue step.
    src, (_, d), _ = _SIDES[side]
    low = plan.sources[src]
    if not colors[_BLUE][d] & low:
        raise MalformedOverlay("truncation target edge is not blue")
    _move(g, colors, d, low, _BLUE, None)
    targets = table.sides[side]
    if targets is None:
        raise MalformedOverlay(f"no {side} image region")
    return (side, *_rebuild(colors, targets))


def unswap(side: str, table: _Table, blue: Masks, red: Masks) -> Tuple[Masks, Masks]:
    """The inverse of swap: the blue and red masks of the overlay whose image
    on the given side is ``blue``, a family of the side's blue image region,
    and ``red``, one of its red image region."""
    if side not in _SIDES:
        raise PreconditionViolated(f"bad side {side!r}")
    plan, red_plan = table.sides[side]
    g, src = plan.region.poset, _SIDES[side][0]
    v_start = plan.sources[src]
    # The mirror bounce path starts at the red source at the other end.
    h_start = red_plan.sources[~src] if red_plan.sources else 0
    twigs = red_plan.source_mask ^ h_start
    # The truncated source: B's one source that is no red image source.
    p0 = table.blue.source_mask & ~red_plan.source_mask
    if not p0 or p0 & p0 - 1:
        raise MalformedOverlay("cannot locate the truncated source position")
    # One bit up is one step north only within a column, off its foot.
    if v_start == p0 << g.width:
        d = 0
    elif v_start == p0 << 1 and (v_start.bit_length() - 1) % g.width:
        d = 1
    else:
        raise MalformedOverlay(f"{_point(g, p0)} is not adjacent below {_point(g, v_start)}")
    blue_free, red_free = list(blue[1:]), list(red[1:])
    vterm, vtaken = _traverse(v_start, g.width, blue_free, red_free)
    if vtaken == _NONE or not vterm & plan.sink_mask:
        raise MalformedOverlay("vertical bounce path does not reach the top")
    taken = _NONE
    if h_start:
        hterm, taken = _traverse(h_start, g.width, red_free, blue_free)
        if not hterm & plan.source_mask:
            raise MalformedOverlay(f"mirror bounce path ends at {_point(g, hterm)}")
    colors = [[blue[1], blue[2], 0, 0], [red[1], red[2], 0, 0]]
    _flip(g, colors, taken, [red[1] & twigs, red[2] & twigs], _RED, _BLUE)
    _move(g, colors, d, p0, None, _BLUE)
    return _rebuild(colors, (table.blue, table.red))


def _forced_path(region: Region, l: int, leftmost: bool) -> Masks:
    """The masks of path l of the region pinned to its leftmost route (east,
    then north) or its rightmost (north, then east)."""
    g, src, snk = region.poset, region.sources[l], region.sinks[l]

    def bit(v: GridPoint) -> int:
        # Inside the grid first: a point outside can have a member's bit.
        b = 1 << g.index(v) if g.contains(v) else 0
        if not b & region.mask:
            raise MalformedOverlay(f"forced route leaves the region at {v}")
        return b

    v, cover, edges = src, bit(src), [0, 0]
    for d in (0, 1) if leftmost else (1, 0):
        while v[d] < snk[d]:
            edges[d] |= bit(v)
            v = (v[0] + 1 - d, v[1] + d)
            cover |= bit(v)
    return cover, edges[0], edges[1]


def hugging_families(region: Region, c: int, d: int) -> List[Masks]:
    """The masks of all (c,d)-boundary-hugging families of the region: the
    first c paths pinned to the leftmost routes, the last d to the
    rightmost; empty when c + d > k."""
    k = region.k
    if c + d > k:
        return []
    return _disjoint_families([
        [_forced_path(region, l, l < c)] if l < c or l >= k - d
        else enum_paths(region, region.sources[l], region.sinks[l]) for l in range(k)])


def _render_weight(g: RectPoset, twice: int, once: int) -> str:
    """The weight, the points of ``once`` and the squares of those of
    ``twice``, as the monomial of A-variables over its points."""
    pairs = [(avar(*p), e) for mask, e in ((once, 1), (twice, 2)) for p in g.points(mask)]
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
    # with a + b pinned paths, so the grid reaches down to (i-k, j-k).  A
    # factor of negative order has no region and no family.
    grid = RectPoset(poset.r, poset.s, min(0, i - k), min(0, j - k))
    rect = grid.mask(poset.members())
    regions = [grid.hexagon(m - a - b, n - a - b, order + a + b) if order >= 0 else None
               for (m, n, order, a, b) in corners]
    families = [hugging_families(region, a, b) if region else []
                for region, (*_, a, b) in zip(regions, corners)]
    for fams, region, (ei, ej, delta), expect in zip(families, regions, _CORNERS, phis):
        total = decode(grid, uncovered_sum(fams, region.mask & rect if region else 0))
        if total != expect:
            rep.fail({"stage": "generating-function", "eps": [ei, ej], "delta": delta,
                      "observed": str(total), "expected": str(expect)})

    B, R, L1, L2, R1, R2 = families
    if len(B) * len(R) != len(L1) * len(L2) + len(R1) * len(R2):
        rep.fail({"stage": "cardinality", "lhs": len(B) * len(R),
                  "rhs": [len(L1) * len(L2), len(R1) * len(R2)]})
    if not (B and R):
        return rep

    # Each family is weighed once, and each side's image regions are cut
    # to the rectangle once.  The images a side may take are its blue
    # families times its red ones.  No image is kept: unswap(swap(x)) == x
    # on every overlay shows swap injective.
    table = _table(regions)
    br, rr = regions[:2]
    blues, reds = ([(f, region.mask & rect & ~f[0]) for f in fams]
                   for fams, region in ((B, br), (R, rr)))
    targets = {"left": (set(L1), set(L2)), "right": (set(R1), set(R2))}
    cuts = {side: (plans[0].region.mask & rect, plans[1].region.mask & rect)
            for side, plans in table.sides.items() if plans}
    for b, u_b in blues:
        for r, u_r in reds:
            try:
                side, blue2, red2 = swap(table, b, r)
            except MalformedOverlay as e:
                rep.fail({"stage": "swap", "overlay": _edge_colors(br, b, rr, r),
                          "error": str(e)})
                continue
            rep.trials += 1
            target_blues, target_reds = targets[side]
            if blue2 not in target_blues or red2 not in target_reds:
                rep.fail({"stage": "membership", "side": side,
                          "overlay": _edge_colors(br, b, rr, r)})
            in_b, in_r = cuts[side]
            v_b, v_r = in_b & ~blue2[0], in_r & ~red2[0]
            w_in, w_out = (u_b & u_r, u_b ^ u_r), (v_b & v_r, v_b ^ v_r)
            if w_in != w_out:
                rep.fail({"stage": "weight", "overlay": _edge_colors(br, b, rr, r),
                          "observed": _render_weight(grid, *w_out),
                          "expected": _render_weight(grid, *w_in)})
            try:
                if unswap(side, table, blue2, red2) != (b, r):
                    rep.fail({"stage": "round-trip", "overlay": _edge_colors(br, b, rr, r)})
            except MalformedOverlay as e:
                rep.fail({"stage": "unswap", "overlay": _edge_colors(br, b, rr, r),
                          "error": str(e)})
    return rep
