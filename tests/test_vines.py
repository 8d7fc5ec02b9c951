import itertools

import pytest

from vinebound import (
    Ear,
    EarCapError,
    Graph,
    Path,
    PreconditionError,
    Vine,
    VineSearchCapError,
    enumerate_ears,
    enumerate_vines,
    find_min_vine,
    longest_cycle,
    longest_path,
    validate_path,
    verify_vine,
)

from conftest import complete_graph, cycle_graph
from vinebound import vines
from vinebound.families import random_two_connected


def ears_as_pairs(ears):
    return [(e.x_attach, e.y_attach) for e in ears]


def vine_pairs(vine):
    return [(e.x_attach, e.y_attach) for e in vine.ears]


# ------------------------------------------------------------------
# ear enumeration
# ------------------------------------------------------------------

def test_ears_x2_are_the_three_chords(x2):
    p = validate_path(x2, range(7))
    ears = enumerate_ears(x2, p)
    assert ears_as_pairs(ears) == [(0, 3), (1, 5), (3, 6)]
    assert all(e.length == 1 and e.interior == () for e in ears)


def test_ears_theta(theta):
    p = validate_path(theta, [2, 0, 3, 1, 4])
    ears = enumerate_ears(theta, p)
    assert (2, 1) in ears_as_pairs(ears)
    assert (0, 4) in ears_as_pairs(ears)
    assert len(ears) == 2


def test_ears_c5_single(c5):
    p = validate_path(c5, range(5))
    assert ears_as_pairs(enumerate_ears(c5, p)) == [(0, 4)]


def test_ears_with_interior(theta):
    # on the short path 0-2-1, the other two branches are length-2 ears
    p = validate_path(theta, [0, 2, 1])
    ears = enumerate_ears(theta, p)
    assert [(e.x_attach, e.interior, e.y_attach) for e in ears] == [
        (0, (3,), 1),
        (0, (4,), 1),
    ]


def test_ears_exclude_base_path_edges(k4):
    p = validate_path(k4, [0, 1, 2, 3])
    ears = enumerate_ears(k4, p)
    assert ears_as_pairs(ears) == [(0, 2), (0, 3), (1, 3)]


def test_ears_deterministic_order(x2):
    p = validate_path(x2, range(7))
    assert ears_as_pairs(enumerate_ears(x2, p)) == ears_as_pairs(enumerate_ears(x2, p))


def test_ear_cap(k4, monkeypatch):
    monkeypatch.setattr(vines, "DEFAULT_EAR_CAP", 2)
    p = validate_path(k4, [0, 1, 2, 3])
    with pytest.raises(EarCapError) as err:
        enumerate_ears(k4, p)
    assert err.value.partial_count == 2


def test_ears_long_off_path_walk():
    # one ear through all 2997 off-path vertices, deeper than Python's
    # default recursion limit
    g = cycle_graph(3000)
    ears = enumerate_ears(g, validate_path(g, (0, 1, 2)))
    assert [e.vertices for e in ears] == [(0, *range(2999, 2, -1), 2)]


# ------------------------------------------------------------------
# vine verification
# ------------------------------------------------------------------

def test_verify_vine_x2_pass(x2):
    p = validate_path(x2, range(7))
    vine = Vine(p, [Ear((0, 3)), Ear((1, 5)), Ear((3, 6))])
    assert verify_vine(x2, vine).ok


def test_verify_vine_strictness_violation(x2):
    # x_2 = 3 must come strictly before y_1 = 3
    p = validate_path(x2, range(7))
    vine = Vine(p, [Ear((0, 3)), Ear((3, 6))])
    verdict = verify_vine(x2, vine)
    assert not verdict.ok
    assert verdict.clause == "chain"


def test_verify_vine_single_ear_endpoints(c5):
    p = validate_path(c5, range(5))
    assert verify_vine(c5, Vine(p, [Ear((0, 4))])).ok
    # single ear must attach exactly at the path's endpoints
    verdict = verify_vine(c5, Vine(p, [Ear((1, 4, 0))]))
    assert not verdict.ok


def test_verify_vine_interior_on_path(x2):
    p = validate_path(x2, [0, 1, 2, 3])
    bad = Vine(p, [Ear((0, 1, 2, 3))])  # interior 1,2 lie on the path
    verdict = verify_vine(x2, bad)
    assert not verdict.ok
    assert verdict.clause == "interior"


def test_verify_vine_interiors_intersect(theta):
    p = validate_path(theta, [0, 2, 1])
    vine = Vine(p, [Ear((0, 3, 1)), Ear((0, 3, 1))])
    verdict = verify_vine(theta, vine)
    assert not verdict.ok
    assert verdict.clause == "overlap"


def test_verify_vine_attachment_off_path(x2):
    p = validate_path(x2, [0, 1, 2, 3])
    vine = Vine(p, [Ear((0, 3)), Ear((1, 5))])  # 5 is not on p
    verdict = verify_vine(x2, vine)
    assert not verdict.ok
    assert verdict.clause == "attachment"


def test_verify_vine_rejects_non_path_ear(x2):
    p = validate_path(x2, range(7))
    verdict = verify_vine(x2, Vine(p, [Ear((0, 6))]))  # 0-6 is not an edge
    assert not verdict.ok
    assert verdict.clause == "ear"
    # the base path is checked first, then that there is an ear at all
    assert verify_vine(x2, Vine(Path((0, 6)), [Ear((0, 1, 6))])).clause == "base"
    assert verify_vine(x2, Vine(p, [])).clause == "empty"


def test_bare_path_edge_unusable_anywhere(x2):
    """A single edge of the base path can never appear in any vine: the
    strict chain inequalities leave it no room. Checked exhaustively by
    inserting the edge 2-3 into every chain position of every ear subset."""
    p = validate_path(x2, range(7))
    bare = Ear((2, 3))
    verdict = verify_vine(x2, Vine(p, [bare]))
    assert not verdict.ok
    real = enumerate_ears(x2, p)
    for r in range(0, len(real) + 1):
        for subset in itertools.combinations(real, r):
            for pos in range(r + 1):
                ears = list(subset[:pos]) + [bare] + list(subset[pos:])
                assert not verify_vine(x2, Vine(p, ears)).ok


# ------------------------------------------------------------------
# minimum vine search
# ------------------------------------------------------------------

def test_find_min_vine_k4(k4):
    vine = find_min_vine(k4, validate_path(k4, [0, 1, 2, 3]))
    assert vine.m == 1
    assert vine_pairs(vine) == [(0, 3)]


def test_find_min_vine_x2(x2):
    vine = find_min_vine(x2, validate_path(x2, range(7)))
    assert vine.m == 3
    assert vine_pairs(vine) == [(0, 3), (1, 5), (3, 6)]


def test_find_min_vine_c5(c5):
    vine = find_min_vine(c5, validate_path(c5, range(5)))
    assert vine.m == 1
    assert vine_pairs(vine) == [(0, 4)]


def test_min_vine_verifies_and_matches_enumeration_minimum(x1, x2, k4, theta):
    for g in (x1, x2, k4, theta):
        p = longest_path(g)
        vine = find_min_vine(g, p)
        assert verify_vine(g, vine).ok
        enum = enumerate_vines(g, p, max_count=10_000)
        assert not enum.truncated
        assert vine.m == min(v.m for v in enum.vines)
        # breadth-first order puts the minimum vine first
        assert vine_pairs(enum.vines[0]) == vine_pairs(vine)


def test_find_min_vine_requires_two_connected():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError):
        find_min_vine(g, validate_path(g, [0, 1, 2]))


# ------------------------------------------------------------------
# vine enumeration
# ------------------------------------------------------------------

def test_enumerate_vines_counts(triangle, c5, x1):
    p_t = validate_path(triangle, [0, 1, 2])
    enum_t = enumerate_vines(triangle, p_t, max_count=10)
    assert len(enum_t.vines) == 1 and vine_pairs(enum_t.vines[0]) == [(0, 2)]

    p_c = validate_path(c5, range(5))
    assert len(enumerate_vines(c5, p_c, max_count=10).vines) == 1

    p_x = validate_path(x1, range(5))
    enum_x = enumerate_vines(x1, p_x, max_count=10)
    assert [(v.m, vine_pairs(v)) for v in enum_x.vines] == [(2, [(0, 3), (1, 4)])]


def test_enumerate_vines_matches_brute_force_subset_check(k4, x2, theta):
    for g, path_vs in ((k4, [0, 1, 2, 3]), (x2, range(7)), (theta, [2, 0, 3, 1, 4])):
        p = validate_path(g, path_vs)
        enum = enumerate_vines(g, p, max_count=100_000)
        assert not enum.truncated
        ears = enumerate_ears(g, p)
        brute = 0
        for r in range(1, len(ears) + 1):
            for combo in itertools.combinations(ears, r):
                if verify_vine(g, Vine(p, combo)).ok:
                    brute += 1
        assert len(enum.vines) == brute
        assert all(verify_vine(g, v).ok for v in enum.vines)


def test_enumerate_vines_truncation(k4):
    p = validate_path(k4, [0, 1, 2, 3])
    enum = enumerate_vines(k4, p, max_count=1)
    assert enum.truncated and len(enum.vines) == 1
    with pytest.raises(PreconditionError, match="^max_count must be positive$"):
        enumerate_vines(k4, p, max_count=0)


def test_vine_cap_past_the_state_cap_reads_as_the_state_cap(x2):
    # islice takes no stop past 2^63 - 1; no search yields more vines than
    # it has states
    p = longest_path(x2)
    assert enumerate_vines(x2, p, 2**70) == enumerate_vines(x2, p, vines.DEFAULT_STATE_CAP)


def test_state_cap(monkeypatch):
    monkeypatch.setattr(vines, "DEFAULT_STATE_CAP", 5)
    g = complete_graph(9)
    p = longest_path(g)
    with pytest.raises(VineSearchCapError):
        enumerate_vines(g, p, max_count=100_000)


def test_state_cap_past_the_first_level(monkeypatch):
    """A first BFS level that fits the cap exactly, with extensions that do
    not, trips the check inside the level loop."""
    g = complete_graph(9)
    p = longest_path(g)
    first_level = sum(1 for ear in enumerate_ears(g, p) if ear.x_attach == p.vertices[0])
    monkeypatch.setattr(vines, "DEFAULT_STATE_CAP", first_level)
    with pytest.raises(VineSearchCapError):
        enumerate_vines(g, p, max_count=100_000)


# ------------------------------------------------------------------
# existence and the q0 consequence
# ------------------------------------------------------------------

def test_vine_exists_on_every_longest_path_of_seeded_graphs():
    for seed in range(40):
        g, _ = random_two_connected(4 + seed % 8, seed % 5, seed)
        p = longest_path(g)
        vine = find_min_vine(g, p)
        assert verify_vine(g, vine).ok


def test_circumference_at_least_m_plus_two():
    for seed in range(30):
        g, _ = random_two_connected(5 + seed % 7, seed % 6, seed * 77 + 1)
        p = longest_path(g)
        c = longest_cycle(g).length
        enum = enumerate_vines(g, p, max_count=200)
        for vine in enum.vines:
            assert c >= vine.m + 2


def test_vine_on_arbitrary_path(c5):
    # supported mechanically on non-longest paths too
    p = validate_path(c5, [1, 2, 3])
    vine = find_min_vine(c5, p)
    assert verify_vine(c5, vine).ok
    assert vine_pairs(vine) == [(1, 3)]
    assert vine.ears[0].interior == (0, 4)


@pytest.mark.parametrize("pairs, detail", [
    ([(0, 3), (1, 4), (2, 6)], "need y_1 <= x_3, got positions 3, 2"),
    ([(0, 3), (1, 4), (4, 6)], "need x_3 < y_2, got positions 4, 4"),
    ([(6, 0)], "ear 1 attachments are not oriented along the path"),
])
def test_verify_vine_names_the_broken_chain_link(pairs, detail):
    g = complete_graph(7)
    p = validate_path(g, range(7))
    verdict = verify_vine(g, Vine(p, [Ear(pair) for pair in pairs]))
    assert (verdict.ok, verdict.clause, verdict.detail) == (False, "chain", detail)
