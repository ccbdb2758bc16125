"""Rectangle poset, files, and hexagonal regions."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import birow
from birow.errors import HypothesisViolated, OutOfRange
from birow.grid_poset import RectPoset, Region, parse_point_key, point_key

grids = st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=5))


def test_members_and_bounds():
    p = RectPoset(2, 1)
    assert len(p.members()) == 6
    assert p.contains((2, 1)) and not p.contains((3, 0))
    with pytest.raises(OutOfRange):
        p.covers((3, 0))
    with pytest.raises(OutOfRange):
        RectPoset(-1, 0)


# Standard grids, and extended grids with negative lower bounds as the
# Plucker check builds them: RectPoset(r, s, min(0, i - k), min(0, j - k)).
LAYOUT_GRIDS = [RectPoset(r, s) for r in range(4) for s in range(4)] + [
    RectPoset(2, 1, -4, -4), RectPoset(3, 2, -2, -1), RectPoset(5, 5, 0, -1),
    RectPoset(5, 5, -1, 0), RectPoset(6, 6, -1, -1)]


@pytest.mark.parametrize("g", LAYOUT_GRIDS, ids=repr)
def test_layout_is_members_order(g):
    members = g.members()
    assert g.width == len({j for _, j in members})
    assert [g.index(p) for p in members] == list(range(len(members)))
    assert [g.point(b) for b in range(len(members))] == members
    assert g.mask(members) == (1 << len(members)) - 1
    for b, p in enumerate(members):
        assert g.mask([p]) == 1 << b
        # The east and north neighbours are width bits and one bit higher.
        if g.contains((p[0] + 1, p[1])):
            assert g.index((p[0] + 1, p[1])) == b + g.width
        if g.contains((p[0], p[1] + 1)):
            assert g.index((p[0], p[1] + 1)) == b + 1
    assert g.mask([]) == 0


def test_points_inverts_mask():
    # Every subset of the members of every grid of at most 9 points with
    # lower bounds -2..0.
    for imin in range(-2, 1):
        for jmin in range(-2, 1):
            for rows in range(1, 10):
                for cols in range(1, 9 // rows + 1):
                    g = RectPoset(imin + rows - 1, jmin + cols - 1, imin, jmin)
                    members = g.members()
                    for chosen in range(1 << len(members)):
                        subset = [p for b, p in enumerate(members) if chosen >> b & 1]
                        assert g.points(g.mask(subset)) == sorted(subset), (g, subset)


def test_cover_relations():
    p = RectPoset(2, 2)
    ups, top = p.covers((1, 1))
    assert ups == {(2, 1), (1, 2)} and not top
    assert p.covers((2, 2)) == (set(), True)
    downs, bottom = p.covered_by((0, 0))
    assert downs == set() and bottom
    assert p.covered_by((1, 0)) == ({(0, 0)}, False)


@given(grids)
@settings(max_examples=30)
def test_linear_extension_is_top_down(rs):
    p = RectPoset(*rs)
    order = p.linear_extension_desc()
    assert sorted(order) == sorted(p.members())
    seen = set()
    for v in order:
        ups, _ = p.covers(v)
        assert ups <= seen  # everything above was toggled first
        seen.add(v)


def test_point_key_round_trip():
    assert parse_point_key(point_key((3, 2))) == (3, 2)
    assert parse_point_key("-1,4") == (-1, 4)


class TestFiles:
    def test_partition_of_grid(self):
        p = RectPoset(3, 2)
        pts = [q for t in range(-3, 3) for q in p.file_by_offset(t).points]
        assert sorted(pts) == sorted(p.members())

    def test_case_classification_wide(self):
        p = RectPoset(4, 3)  # s <= r
        assert p.file_by_offset(-2).case == "a"   # top (4, 2), d = 2
        assert p.file_by_offset(-2).d == 2
        assert p.file_by_offset(2).case == "b"    # top (1, 3), d = 1
        assert p.file_by_offset(2).d == 1
        assert p.file_by_offset(0).case == "c"
        assert p.file_by_offset(0).d == 3

    def test_case_classification_tall(self):
        p = RectPoset(2, 4)  # r < s: transposed reading
        assert p.file_by_offset(3).case == "a"
        assert p.file_by_offset(-1).case == "b"
        assert p.file_by_offset(1).case == "c"

    def test_points_by_decreasing_rank(self):
        info = RectPoset(3, 2).file_by_offset(-1)
        ranks = [i + j for (i, j) in info.points]
        assert ranks == sorted(ranks, reverse=True)

    def test_offset_out_of_range(self):
        with pytest.raises(OutOfRange):
            RectPoset(2, 2).file_by_offset(3)


class TestHexagon:
    def test_order_zero_is_the_filter(self):
        p = RectPoset(3, 2)
        region = p.hexagon(2, 1, 0)
        assert p.points(region.mask) == [(2, 1), (2, 2), (3, 1), (3, 2)]
        assert region.sources == () and region.sinks == ()

    def test_sources_and_sinks(self):
        p = RectPoset(3, 2)
        region = p.hexagon(1, 0, 2)
        assert region.sources == ((2, 0), (1, 1))
        assert region.sinks == ((3, 1), (2, 2))
        for q in region.sources + region.sinks:
            assert q in p.points(region.mask)

    def test_rank_band(self):
        p = RectPoset(3, 2)
        region = p.hexagon(1, 0, 2)
        assert all(2 <= i + j <= 4 for (i, j) in p.points(region.mask))
        assert all(i >= 1 and j >= 0 for (i, j) in p.points(region.mask))

    @pytest.mark.parametrize("g", LAYOUT_GRIDS, ids=repr)
    def test_members_are_the_filter_in_the_rank_window(self, g):
        for m in range(g.imin, g.r + 1):
            for n in range(g.jmin, g.s + 1):
                for k in range(min(g.r - m, g.s - n) + 2):
                    lo, hi = m + n + k - 1, g.r + g.s - k + 1
                    assert g.hexagon(m, n, k).mask == g.mask(
                        p for p in g.members()
                        if p[0] >= m and p[1] >= n and lo <= p[0] + p[1] <= hi)

    def test_order_bound(self):
        p = RectPoset(3, 2)
        p.hexagon(1, 0, 3)  # min(r-m, s-n)+1 = 3 is the largest legal order
        with pytest.raises(HypothesisViolated):
            p.hexagon(1, 0, 4)

    def test_extended_grid(self):
        # Negative lower bounds under the same maximal corner, as the Plucker
        # check builds for its hugging families.
        big = RectPoset(2, 1, -4, -4)
        assert len(big.members()) == 7 * 6
        assert big.contains((-3, -2)) and not big.contains((-5, 0))
        assert big.hexagon(-2, -1, 1).sinks == ((2, 1),)

    def test_equal_regions_hash_alike(self):
        # Regions are frozen values: two built apart, one by hexagon and one
        # field by field, are distinct objects that compare equal, hash
        # alike and key the same dict entry; regions on other bases or
        # orders do not.
        p = RectPoset(3, 2)
        built = p.hexagon(1, 0, 2)
        apart = Region(RectPoset(3, 2), 1, 0, 2, built.mask, built.sources, built.sinks)
        assert apart is not built and apart == built and hash(apart) == hash(built)
        assert p.hexagon(1, 0, 2) is not built
        table = {built: "built", p.hexagon(1, 0, 1): "order 1", p.hexagon(0, 0, 2): "base"}
        assert table[apart] == "built" and len(table) == 3


def test_no_region_outlives_a_check():
    # In a fresh interpreter, so that no region built by another test is
    # counted: after gc.collect(), as many regions are alive after each
    # check as before it.
    script = textwrap.dedent("""
        import gc
        from birow.bounce import plucker_check
        from birow.grid_poset import RectPoset, Region
        from birow.verify import check_file_homomesy, check_main_formula

        def live():
            gc.collect()
            return sum(isinstance(x, Region) for x in gc.get_objects())

        for check in (lambda: check_main_formula(6, 6, 1),
                      lambda: plucker_check(RectPoset(5, 5), 4, 4, 5),
                      lambda: check_file_homomesy(5, 4, range(-5, 5), "symbolic")):
            before = live()
            check()
            print(before, live())
    """)
    src = os.path.dirname(os.path.dirname(birow.__file__))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    counts = [line.split() for line in out.splitlines()]
    assert len(counts) == 3 and all(before == after for before, after in counts), counts
