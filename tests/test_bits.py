"""The subset-lattice and per-point meet kernels against literal scans
and fixpoints."""

import random

from topolab import bits
from topolab.bits import (
    canonical_family,
    contained_union_table,
)
from topolab.space import MAX_POINTS, random_topology

from oracles import literal_contained_union_table, literal_point_meets, route_check

WIDTHS = (1, 7, 8, 9, 16, 17, 64, 65)


def _pair_lists(rng, n, width):
    """The empty list, a list with repeated keys and a seeded list of
    ``width``-bit payloads, one payload of the full width in each."""
    top = 1 << (width - 1)
    keys = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 12))]
    seeded = [(k, rng.getrandbits(width) | (top if i == 0 else 0)) for i, k in enumerate(keys)]
    repeated = [(keys[0], top), (keys[0], 1), (keys[-1], rng.getrandbits(width))] * 2
    return [[], repeated, seeded]


def test_contained_union_table_matches_literal_scan():
    rng = random.Random(41)
    for n in range(13):
        for width in WIDTHS:
            for pairs in _pair_lists(rng, n, width):
                expect = literal_contained_union_table(pairs, n)
                assert contained_union_table(iter(pairs), n) == expect, (n, width, pairs)


def test_clear_masks_flag_the_lanes_of_subsets_without_each_point():
    # every lane width up to 8 points; the cached plane masks (width 1)
    # at every ground-set size, read twice, and the cache stays bounded
    for n in range(MAX_POINTS + 1):
        for width in (1, 8, 24) if n <= 8 else (1,):
            got = dict(bits._clear_masks(n, width))
            assert sorted(got) == list(range(n))
            for i, clear in got.items():
                # lane a, the a-th from the right, is all ones iff a lacks i
                digits = "".join(("0" if a >> i & 1 else "1") * width for a in reversed(range(1 << n)))
                assert clear == int(digits, 2), (n, width, i)
        assert bits._clear_masks(n, 1) is bits._clear_masks(n, 1)
    info = bits._plane_masks.cache_info()
    assert info.maxsize <= MAX_POINTS + 1 and info.currsize <= info.maxsize
    # the oracle's wider subfamily planes are built per call, not kept
    (i, clear), *_ = bits._clear_masks(MAX_POINTS + 1, 1)
    assert (i, clear) == (MAX_POINTS, (1 << (1 << MAX_POINTS)) - 1)
    assert bits._plane_masks.cache_info().currsize == info.currsize


def test_point_meets_match_the_row_loop_on_wide_spaces():
    # the opens of seeded 13-16-point spaces, whose rows pack to 32-bit lanes
    rng = random.Random(53)
    for n in range(13, MAX_POINTS + 1):
        top = random_topology(n, rng.randrange(10**6), n)
        rows = [(u, u) for u in top.opens]
        assert bits.pack_lanes([t << n | u for t, u in rows])[1] == 32
        assert bits.point_meets(rows, n) == literal_point_meets(rows, n), n
    # seeded rows of every size up to 16 points, their t's drawn below a
    # seeded top point, so that the packed entries often stay narrower
    # than 2n bits
    for n in range(MAX_POINTS + 1):
        for _ in range(8):
            low = 1 << rng.randrange(n + 1)
            rows = [(rng.randrange(low), rng.randrange(1 << n)) for _ in range(rng.randrange(40))]
            assert bits.point_meets(iter(rows), n) == literal_point_meets(rows, n), (n, rows)


def test_point_meets_edge_cases():
    # no rows, or rows whose u holds nothing, leave every entry whole
    for n in range(MAX_POINTS + 1):
        full = (1 << n) - 1
        assert bits.point_meets([], n) == (full,) * n
        assert bits.point_meets([(0, 0), (1, 0)], n) == (full,) * n
    assert bits.point_meets([], 0) == () == bits.point_meets([(0, 0)], 0)
    # t's that leave the top points out pack narrower than 2n bits, yet no
    # test reads a neighbouring row: c's only image is empty
    assert bits.point_meets([(0, 0b00100), (0b011, 0b01011)], 5) == (0b011, 0b011, 0, 0b011, 0b11111)
    # a 16-point table whose lanes are 32 bits wide: t and u both use the
    # top point, so the packed entries fill the whole lane
    n, full = MAX_POINTS, (1 << MAX_POINTS) - 1
    top_bit = 1 << (n - 1)
    rows = [(full, full), (top_bit | 1, top_bit), (full ^ 1, 1), (top_bit | 2, 2 | top_bit)]
    assert bits.pack_lanes([t << n | u for t, u in rows])[1] == 32
    got = bits.point_meets(rows, n)
    assert got == literal_point_meets(rows, n)
    assert got[0] == full ^ 1 and got[1] == top_bit | 2 and got[n - 1] == top_bit
    assert got[2:n - 1] == (full,) * (n - 3)


def test_pack_lanes_picks_the_narrowest_fitting_lane():
    # 1, 2, 4 and 8-byte lanes through array, wider ones byte by byte
    for need, lane in ((0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 9), (12, 12)):
        top = (1 << (8 * need)) - 1
        lanes, width = bits.pack_lanes([0, top, 1])
        assert width == 8 * lane, need
        assert lanes == top << width | 1 << (2 * width), need


def test_zero_lanes_match_the_entry_scan():
    # tables of 0-10 points whose entries are zero about half the time,
    # packed to 1-, 2-, 4-, 8- and 9-byte lanes, and the same lanes read
    # at a 3-byte width the packer never picks; a lane whose only set bit
    # is its top one counts as nonzero
    rng = random.Random(59)
    for n in range(11):
        for bits_wide in (1, 8, 9, 16, 17, 32, 33, 64, 65):
            table = [rng.getrandbits(bits_wide) if rng.random() < 0.5 else 0 for _ in range(1 << n)]
            table[-1] |= 1 << (bits_wide - 1)
            table[0] = 1 << (bits_wide - 1) if n else table[0]
            lanes, width = bits.pack_lanes(table)
            expect = tuple(a for a, v in enumerate(table) if v == 0)
            assert bits.zero_lanes(lanes, width, n) == expect, (n, bits_wide)
        table = [rng.getrandbits(24) if rng.random() < 0.5 else 0 for _ in range(1 << n)]
        lanes = sum(v << (24 * a) for a, v in enumerate(table))
        assert bits.zero_lanes(lanes, 24, n) == tuple(a for a, v in enumerate(table) if v == 0), n
    assert bits.zero_lanes(0, 8, 0) == (0,) and bits.zero_lanes(1, 8, 0) == ()


def test_lanes_round_trip_and_transform_like_the_table():
    # unpack_lanes inverts pack_lanes at every lane width, and
    # contained_union_lanes is the literal table packed
    rng = random.Random(61)
    for n in range(9):
        for width in WIDTHS:
            table = [rng.getrandbits(width) for _ in range(1 << n)]
            assert tuple(bits.unpack_lanes(*bits.pack_lanes(table), n)) == tuple(table), (n, width)
            for pairs in _pair_lists(rng, n, width):
                lanes, lane_width = bits.contained_union_lanes(iter(pairs), n)
                expect = literal_contained_union_table(pairs, n)
                assert tuple(bits.unpack_lanes(lanes, lane_width, n)) == tuple(expect), (n, width, pairs)


def test_row_planes_transpose_the_rows():
    # held[x] and hit[y] flag exactly the rows whose u holds x and whose t
    # holds y, read back lane by lane; the closing row is in every hit
    # plane and no held plane
    rng = random.Random(67)
    for n in range(MAX_POINTS + 1):
        rows = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(rng.randrange(30))]
        held, hit, ones = bits.row_planes(iter(rows), n)
        assert len(held) == len(hit) == n
        closed = rows + [((1 << n) - 1, 0)]
        width = bits.pack_lanes([t << n | u for t, u in closed])[1]
        assert width >= 2 * n
        for i, (t, u) in enumerate(closed):
            for x in range(n):
                assert (held[x] >> (i * width) & 1) == (u >> x & 1), (n, i, x)
                assert (hit[x] >> (i * width) & 1) == (t >> x & 1), (n, i, x)
        assert ones == sum(1 << (i * width) for i in range(len(closed)))
        assert all(plane & ~ones == 0 for plane in held + hit)


def test_identity_lanes_are_one_bounded_table_per_size():
    # the packed identity of every ground-set size, shared by the spaces
    # of that size, from a cache of at most one entry per size
    for n in range(MAX_POINTS + 1):
        assert bits.identity_lanes(n) == bits.pack_lanes(range(1 << n)), n
        assert bits.identity_lanes(n) is bits.identity_lanes(n)
    info = bits.identity_lanes.cache_info()
    assert info.maxsize == MAX_POINTS + 1 and info.currsize <= info.maxsize
    one, other = random_topology(5, 1, 5), random_topology(5, 2, 5)
    assert one.identity_lanes() is other.identity_lanes() is bits.identity_lanes(5)


def test_plane_reads_match_the_member_loops():
    # the members holding a point, their meet and the transposed table,
    # on 2**n-bit planes, against loops over the members and entries:
    # seeded families and tables at every size up to 16 points
    rng = random.Random(59)
    for n in range(MAX_POINTS + 1):
        full = (1 << n) - 1
        for _ in range(3):
            fam = canonical_family(rng.randrange(1 << n) for _ in range(rng.randrange(40)))
            plane = bits.family_plane(fam, n)
            assert bits.plane_members(plane) == fam
            meet = full
            for m in fam:
                meet &= m
            assert bits.plane_meet(plane, n) == meet, (n, fam)
            for x in range(n):
                around = tuple(m for m in fam if m >> x & 1)
                assert bits.plane_members(bits.members_holding(plane, n, x)) == around
        table = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(1 << n)]
        planes = bits.bit_planes(table, n)
        assert len(planes) == n
        for x, got in enumerate(planes):
            assert got == bits.family_plane((a for a, t in enumerate(table) if t >> x & 1), n)


# Checks that became rows of oracles.ROUTES, kept under their names.
test_point_meets_match_the_row_loop_on_every_kernel = route_check("point_meets", "min_nbhds")
test_closures_match_pairwise_fixpoint_on_seeded_families = route_check("closures")
test_plane_closures_match_pairwise_fixpoints = route_check("plane_closures")
test_zero_planes_match_the_lane_walk = route_check("zero_plane")
test_plane_props_match_pairwise_scans = route_check("plane_props")
