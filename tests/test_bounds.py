import math

import pytest

from vinebound import (
    Ear,
    Graph,
    InternalInvariantError,
    NotTwoConnectedError,
    PreconditionError,
    SolveBudgetError,
    SolveLimits,
    Vine,
    analyze,
    build_q0,
    build_qj,
    build_qstar,
    circumference_bound,
    circumference_bound_squared,
    decompose,
    dirac_check,
    find_min_vine,
    longest_cycle,
    longest_path,
    validate_cycle,
    validate_path,
    verify_all_longest_paths,
    verify_all_vines,
    verify_vine,
    verify_vine_against,
)
from vinebound.families import (
    ExtremalSpec,
    extremal_cycle_length,
    extremal_graph,
    extremal_path_length,
)

from conftest import complete_graph, cycle_graph, non_vine, non_vine_graph, path_graph


def x2_decomposition(x2):
    p = validate_path(x2, range(7))
    return decompose(Vine(p, [Ear((0, 3)), Ear((1, 5)), Ear((3, 6))]))


def x1_decomposition(x1):
    p = validate_path(x1, range(5))
    return decompose(Vine(p, [Ear((0, 3)), Ear((1, 4))]))


# ------------------------------------------------------------------
# segment decomposition
# ------------------------------------------------------------------

def test_decompose_x2(x2):
    d = x2_decomposition(x2)
    assert d.a == (1, 0, 1)
    assert d.b == (2, 2)


def test_decompose_x1(x1):
    d = x1_decomposition(x1)
    assert d.a == (1, 1)
    assert d.b == (2,)


def test_decompose_theta(theta):
    p = validate_path(theta, [2, 0, 3, 1, 4])
    d = decompose(Vine(p, [Ear((2, 1)), Ear((0, 4))]))
    assert d.a == (1, 1)
    assert d.b == (2,)


def test_decompose_tiling_invariant(x2, x1, theta, k4):
    for g in (x2, x1, theta, k4):
        p = longest_path(g)
        vine = find_min_vine(g, p)
        if vine.m < 2:
            continue
        d = decompose(vine)
        assert sum(d.a) + sum(d.b) == p.length
        assert d.a[0] >= 1 and d.a[-1] >= 1
        assert all(x >= 0 for x in d.a) and all(x >= 1 for x in d.b)


def test_decompose_single_ear():
    # one A segment, the whole path, and no B; q0 is the base path plus the ear
    for n, path, ear in ((5, range(5), (0, 4)), (7, range(6), (0, 6, 5))):
        g = cycle_graph(n)
        p = validate_path(g, path)
        d = decompose(Vine(p, [Ear(ear)]))
        assert d.a == (p.length,) and d.b == ()
        q0 = build_q0(g, d)
        assert q0.vertices == p.vertices + ear[-2:0:-1]
        assert q0.length == n


def test_decompose_rejects_empty_vine(c5):
    p = validate_path(c5, range(5))
    with pytest.raises(PreconditionError, match="at least one ear"):
        decompose(Vine(p, []))


def test_decompose_rejects_broken_chain(x2):
    p = validate_path(x2, range(7))
    with pytest.raises(PreconditionError, match="chain"):
        decompose(Vine(p, [Ear((0, 3)), Ear((3, 6))]))


def test_decompose_rejects_attachment_off_path(x2):
    p = validate_path(x2, [0, 1, 2, 3])
    with pytest.raises(PreconditionError) as err:
        decompose(Vine(p, [Ear((0, 3)), Ear((1, 5))]))  # 5 is not on p
    assert str(err.value) == "vine attachment off the base path"


def test_broken_chain_messages(x2):
    # x_2 = 3 must come strictly before y_1 = 3
    vine = Vine(validate_path(x2, range(7)), [Ear((0, 3)), Ear((3, 6))])
    with pytest.raises(PreconditionError) as err:
        decompose(vine)
    assert str(err.value) == (
        "vine does not satisfy the interleaving chain: need x_2 < y_1, got positions 3, 3"
    )
    verdict = verify_vine(x2, vine)
    assert (verdict.clause, verdict.detail) == ("chain", "need x_2 < y_1, got positions 3, 3")


# ------------------------------------------------------------------
# cycle constructions
# ------------------------------------------------------------------

def test_q0_x2(x2):
    cyc = build_q0(x2, x2_decomposition(x2))
    assert cyc.vertices == (0, 1, 5, 6, 3)
    assert cyc.length == 5 == (1 + 1 + 1) + (1 + 0 + 1)


def test_q0_x1(x1):
    cyc = build_q0(x1, x1_decomposition(x1))
    assert cyc.length == 4
    assert set(cyc.vertices) == {0, 1, 3, 4}


def test_q0_theta(theta):
    p = validate_path(theta, [2, 0, 3, 1, 4])
    d = decompose(Vine(p, [Ear((2, 1)), Ear((0, 4))]))
    cyc = build_q0(theta, d)
    assert cyc.length == 4
    assert set(cyc.vertices) == {2, 0, 4, 1}


def test_qj_x2(x2):
    from bruteforce import canonical_cycle

    cyc = build_qj(x2, x2_decomposition(x2), 1)
    assert canonical_cycle(cyc.vertices) == (1, 2, 3, 4, 5)
    assert cyc.length == 5 == 1 + 0 + 2 + 2  # ear 2 + a_2 + b_1 + b_2


def test_qj_out_of_range(x1, x2):
    with pytest.raises(PreconditionError):
        build_qj(x1, x1_decomposition(x1), 1)  # m=2 has no valid j
    with pytest.raises(PreconditionError):
        build_qj(x2, x2_decomposition(x2), 2)


def test_qj_never_exceeds_circumference(x2):
    c = longest_cycle(x2).length
    assert build_qj(x2, x2_decomposition(x2), 1).length <= c


def test_qstar_x1(x1):
    cyc = build_qstar(x1, x1_decomposition(x1))
    assert cyc.length == 4 == 1 + 2 + 1  # a_1 + b_1 + ear (empty B_0)
    assert set(cyc.vertices) == {0, 1, 2, 3}


def test_qstar_m4_extremal():
    g, spine, vine = extremal_graph(ExtremalSpec(4, 0))
    d = decompose(vine)
    cyc = build_qstar(g, d)
    assert cyc.length == d.b[1] + d.b[0] + d.a[1] + vine.ears[1].length
    assert cyc.length <= longest_cycle(g).length


def test_qstar_rejects_odd_m(x2):
    with pytest.raises(PreconditionError):
        build_qstar(x2, x2_decomposition(x2))


def test_q_cycles_revalidate(x2):
    d = x2_decomposition(x2)
    for cyc in (build_q0(x2, d), build_qj(x2, d, 1)):
        assert validate_cycle(x2, cyc.vertices).length == cyc.length


# ------------------------------------------------------------------
# inequalities
# ------------------------------------------------------------------

def inequalities(g, vine, c):
    """The inequality verdicts of one vine against c, read from its
    verification (l, the base path's length, plays no part in them)."""
    v = verify_vine_against(g, vine.base.length, c, vine)
    return v.ineq1, v.ineq2


def test_inequality_1_x2(x2):
    v, _ = inequalities(x2, x2_decomposition(x2).vine, c=5)
    assert (v.lhs, v.rhs, v.ok) == (2, 2, True)


def test_inequality_1_x1(x1):
    v, _ = inequalities(x1, x1_decomposition(x1).vine, c=4)
    assert (v.lhs, v.rhs, v.ok) == (2, 2, True)


def test_inequality_1_k4_two_ear_vine(k4):
    p = validate_path(k4, [0, 1, 2, 3])
    d = decompose(Vine(p, [Ear((0, 2)), Ear((1, 3))]))
    assert d.a == (1, 1) and d.b == (1,)
    v, _ = inequalities(k4, d.vine, c=4)
    assert (v.lhs, v.rhs, v.ok) == (2, 2, True)


def test_inequality_1_rejects_single_ear(c5):
    ineq1, ineq2 = inequalities(c5, Vine(validate_path(c5, range(5)), [Ear((0, 4))]), c=5)
    assert ineq1 is None and ineq2 == ()


def test_inequality_2_x2(x2):
    _, (v,) = inequalities(x2, x2_decomposition(x2).vine, c=5)
    assert (v.j, v.lhs, v.rhs, v.ok) == (1, 4, 4, True)
    assert v.weak_rhs == 4 and v.weak_ok


def test_inequality_2_range(x1):
    _, ineq2 = inequalities(x1, x1_decomposition(x1).vine, c=4)
    assert ineq2 == ()


def test_inequality_2_m5_extremal():
    g, spine, vine = extremal_graph(ExtremalSpec(5, 0))
    d = decompose(vine)
    assert d.a == (1, 0, 0, 0, 1) and d.b == (2, 3, 3, 2)
    _, (_, v) = inequalities(g, vine, c=7)
    assert (v.j, v.lhs, v.rhs, v.ok) == (2, 6, 6, True)


def test_inequalities_subtract_the_middle_a_sums():
    # the spine 0..9 with chords 0-3, 2-6 and 5-9: the middle segment
    # A_2 = 3..5 is not empty, so both inequalities subtract a_2 = 2
    g = Graph(10, [(i, i + 1) for i in range(9)] + [(0, 3), (2, 6), (5, 9)])
    r = analyze(g)
    assert (r.l, r.c, r.slack) == (9, 10, 5)
    assert [ear.vertices for ear in r.vine.ears] == [(0, 3), (2, 6), (5, 9)]
    d = decompose(r.vine)
    assert d.a == (2, 2, 3) and d.b == (1, 1)
    assert (r.ineq1.lhs, r.ineq1.rhs, r.ineq1.ok) == (5, 5, True)
    (v,) = r.ineq2
    assert (v.j, v.lhs, v.rhs, v.weak_rhs, v.ok) == (1, 2, 7, 9, True)


# ------------------------------------------------------------------
# bound formulas and corollaries
# ------------------------------------------------------------------

def test_bound_values():
    assert circumference_bound(6, 0, m=3) == 5.0
    assert circumference_bound(4, 0, m=2) == 4.0
    assert circumference_bound(2, 0, m=1) == 3.0
    assert circumference_bound_squared(6, 0, 3) == 25
    assert circumference_bound_squared(4, 0, 2) == 16
    assert circumference_bound(12, 0, m=5) == math.sqrt(49)


def test_bound_parity_difference():
    assert circumference_bound_squared(10, 2, 3) == 49
    assert circumference_bound_squared(10, 2, 4) == 48


def test_bound_preconditions():
    with pytest.raises(PreconditionError):
        circumference_bound(0, 0, 1)
    with pytest.raises(PreconditionError):
        circumference_bound(5, -1, 1)
    with pytest.raises(PreconditionError):
        circumference_bound(5, 0, 0)


def verdict_pair(v):
    return (v.theorem_a, v.conjecture_a)


def test_dirac_check():
    assert verdict_pair(dirac_check(4, 4)) == (True, True)  # equality case of the sharp form
    assert verdict_pair(dirac_check(2, 3)) == (True, True)
    assert verdict_pair(dirac_check(6, 5)) == (True, True)
    assert verdict_pair(dirac_check(5, 3)) == (False, False)  # 9 <= 10 and 9 < 20
    assert verdict_pair(dirac_check(8, 4)) == (False, False)  # c^2 = 2l: the bound is strict
    with pytest.raises(PreconditionError):
        dirac_check(0, 3)


def test_dirac_tuple_fields():
    v = dirac_check(6, 5)
    assert v.theorem_a and v.conjecture_a


# ------------------------------------------------------------------
# analyze
# ------------------------------------------------------------------

def test_analyze_x2(x2):
    r = analyze(x2)
    assert (r.l, r.c, r.m, r.slack) == (6, 5, 3, 0)
    assert r.parity == "odd"
    assert r.bound == 5.0 and r.tight and r.bound_met
    assert r.dirac.theorem_a and r.dirac.conjecture_a  # 25 > 12 and 25 >= 24
    assert r.q0_len == 5 and r.qj_lens == (5,) and r.qstar_len is None
    assert r.ok


def test_analyze_x1(x1):
    r = analyze(x1)
    assert (r.l, r.c, r.m, r.slack) == (4, 4, 2, 0)
    assert r.parity == "even"
    assert r.bound == 4.0 and r.tight
    assert r.c ** 2 == 4 * r.l  # sharp Dirac form holds with equality
    assert r.qstar_len == 4
    assert r.ok


def test_analyze_c5(c5):
    r = analyze(c5)
    assert (r.l, r.c, r.m, r.slack) == (4, 5, 1, 2)
    assert r.bound == 5.0 and r.tight
    assert r.ineq1 is None and r.ineq2 == ()
    assert r.q0_len == 5
    assert r.ok


def test_analyze_triangle(triangle):
    r = analyze(triangle)
    assert (r.l, r.c, r.m, r.slack) == (2, 3, 1, 0)
    assert r.bound == 3.0 and r.tight and r.ok


def test_analyze_long_cycle():
    # the searches walk 1200 vertices deep, past Python's default
    # recursion limit
    r = analyze(cycle_graph(1200))
    assert (r.l, r.c, r.m) == (1199, 1200, 1)
    assert r.ok


def test_analyze_5000_cycle_with_default_limits():
    # each forced step reuses its parent's reach, so the solves stay
    # linear in the number of search nodes, well inside the time budget
    r = analyze(cycle_graph(5000))
    assert (r.l, r.c, r.m) == (4999, 5000, 1)
    assert r.ok
    # well inside 10 s: recounting the whole reach at every node of this
    # search would take tens of seconds per solve
    r = analyze(cycle_graph(5000), SolveLimits(time_budget=10.0))
    assert (r.l, r.c, r.m) == (4999, 5000, 1)


def test_analyze_rejects_non_two_connected():
    with pytest.raises(NotTwoConnectedError) as err:
        analyze(path_graph(4))
    assert err.value.articulation_vertex is not None


def test_analyze_budget_exhaustion_propagates(x2):
    with pytest.raises(SolveBudgetError):
        analyze(x2, SolveLimits(node_budget=3, time_budget=60.0))


def test_analyze_witnesses_revalidate(x2):
    r = analyze(x2)
    validate_path(x2, r.path.vertices)
    validate_cycle(x2, r.cycle.vertices)
    for ear in r.vine.ears:
        validate_path(x2, ear.vertices)


def test_slack_nonnegative_on_certified_paths(x1, x2, c5, k4, theta, triangle):
    for g in (x1, x2, c5, k4, theta, triangle):
        r = analyze(g)
        assert r.slack >= 0 and r.c >= r.m + 2


# ------------------------------------------------------------------
# per-vine verification and exhaustive modes
# ------------------------------------------------------------------

def test_verify_vine_against_m1(c5):
    p = validate_path(c5, range(5))
    vine = Vine(p, [Ear((0, 4))])
    v = verify_vine_against(c5, l=4, c=5, vine=vine)
    assert v.violations == ()
    assert v.q0_len == 5 and v.tight


@pytest.mark.parametrize("ear, message", [
    ((1, 3), "vine does not satisfy the interleaving chain: x_1 must be the path's first vertex"),
    ((4, 5), "vine attachment off the base path"),
])
def test_verify_vine_against_m1_checks_attachments_and_chain(ear, message):
    # neither ear closes the base path 0..4 into a cycle through itself; the
    # base path's own closing edge 4-0 must not pass for one
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (4, 5), (5, 0)])
    p = validate_path(g, range(5))
    with pytest.raises(PreconditionError, match=message):
        verify_vine_against(g, l=5, c=6, vine=Vine(p, [Ear(ear)]))


def test_verify_all_vines_clean_on_fixtures(x1, x2, k4, theta, c5):
    for g in (x1, x2, k4, theta, c5):
        p = longest_path(g)
        l, c = p.length, longest_cycle(g).length
        checked, truncated, violations = verify_all_vines(g, p, l, c, max_vines=200)
        assert checked >= 1 and not truncated
        assert violations == []


def test_verify_all_vines_flags_impossible_claims(x2):
    # an inflated path length must break the bound check loudly
    p = longest_path(x2)
    checked, _, violations = verify_all_vines(x2, p, l=100, c=5, max_vines=50)
    assert checked >= 1
    assert any("bound violated" in v for v in violations)
    # a circumference below m+2 must be flagged too
    _, _, violations = verify_all_vines(x2, p, l=6, c=4, max_vines=50)
    assert any("c >= m+2 violated" in v for v in violations)


def test_verify_all_vines_checks_the_chain_once_per_vine(x2, monkeypatch):
    from vinebound import bounds, vines

    real = vines._chain_failure
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    # wrapped at every module attribute that refers to it
    monkeypatch.setattr(vines, "_chain_failure", counted)
    monkeypatch.setattr(bounds, "_chain_failure", counted)
    for g in (x2, complete_graph(5)):
        calls.clear()
        p = longest_path(g)
        l, c = p.length, longest_cycle(g).length
        checked, truncated, violations = verify_all_vines(g, p, l, c, 200)
        assert checked >= 1 and not truncated and violations == []
        assert len(calls) == checked


def test_verify_vine_against_rejects_an_ear_through_the_base_path():
    """Every ladder of the non-vine is a simple cycle no longer than c, so
    only the interior check sees that ear 2 passes through vertex 4."""
    g = non_vine_graph()
    v = verify_vine_against(g, l=8, c=11, vine=non_vine(g))
    assert v.violations == ("ear 2 interior vertex 4 lies on the base path",)
    assert v.q0_len == 11 and verify_vine(g, non_vine(g)).clause == "interior"


def test_analyze_rejects_a_non_vine_as_the_minimum_vine(tmp_path, capsys, monkeypatch):
    """With the non-vine's spine as the longest path and the non-vine as its
    minimum vine, analyze and the command line report it, with and without
    --all-vines."""
    from vinebound import bounds, serialize_graph
    from vinebound.cli import main

    g = non_vine_graph()
    vine = non_vine(g)
    monkeypatch.setattr(bounds, "longest_path", lambda g, limits: vine.base)
    monkeypatch.setattr(bounds, "find_min_vine", lambda g, p: vine)
    line = "ear 2 interior vertex 4 lies on the base path"
    assert line in analyze(g).violations
    source = tmp_path / "non_vine.txt"
    source.write_text(serialize_graph(g))
    assert main(["analyze", str(source)]) == 1
    monkeypatch.setattr(bounds, "enumerate_vines", lambda g, p, max_count: ((vine,), False))
    assert main(["analyze", str(source), "--all-vines", "200"]) == 1
    assert f"violation: vine #0 (m=2): {line}" in capsys.readouterr().out.splitlines()


def test_verify_all_vines_reports_an_ear_through_the_base_path_in_each_vine(monkeypatch):
    """The same faulty ear in two vines gives one line for each, though the
    second finds its ladders in the pass's table."""
    from vinebound import bounds, enumerate_vines

    g = non_vine_graph()
    bad = non_vine(g)
    passed = (*enumerate_vines(g, bad.base, 200).vines, bad, bad)
    monkeypatch.setattr(bounds, "enumerate_vines", lambda g, p, max_count: (passed, False))
    assert verify_all_vines(g, bad.base, 10, 11, 200) == (3, False, [
        f"vine #{k} (m=2): ear 2 interior vertex 4 lies on the base path" for k in (1, 2)
    ])


def test_one_faulty_ear_at_two_indices_fails_both_vines():
    """The pass keeps one entry per distinct ear; an ear through the base
    path that is ear 2 of one vine and ear 3 of the next fails each at
    its own index."""
    from vinebound import Graph, bounds

    base = non_vine_graph()
    g = Graph(base.n, [*base.edges, (0, 2), (1, 6)])
    assert (longest_path(g).length, longest_cycle(g).length) == (10, 11)
    bad = Ear((3, 9, 4, 10, 8))
    p = validate_path(g, range(9))
    x = Vine(p, [Ear((0, 5)), bad])
    y = Vine(p, [Ear((0, 2)), Ear((1, 6)), bad])
    assert bounds._vine_pass(g, 10, 11, (x, y))[1] == [
        "vine #0 (m=2): ear 2 interior vertex 4 lies on the base path",
        "vine #1 (m=3): ear 3 interior vertex 4 lies on the base path",
    ]


def test_a_ladder_table_hit_still_checks_the_formula_length():
    """A vine whose ladder is already in the pass's table is not walked
    again, but a table length that disagrees with its formula still raises,
    naming the ladder."""
    from vinebound import Cycle, bounds, enumerate_vines

    g = complete_graph(5)
    p = longest_path(g)
    l, c = p.length, longest_cycle(g).length
    ladders = {}
    for vine in enumerate_vines(g, p, 200).vines:
        spans = bounds._ladder_spans(vine.m)
        hits = [label for label, s, t in spans if vine.ears[s : t + 1] in ladders]
        if hits:
            break
        bounds._vine_checks(g, l, c, vine, ladders, {})
    else:
        pytest.fail("no two vines of K5 share a ladder")
    assert bounds._vine_checks(g, l, c, vine, dict(ladders), {})[-1] == ()
    longer = {key: Cycle(range(cycle.length + 1)) for key, cycle in ladders.items()}
    with pytest.raises(InternalInvariantError,
                       match=rf"^{hits[0]} length \d+ does not match the formula value \d+$"):
        bounds._vine_checks(g, l, c, vine, longer, {})


@pytest.mark.parametrize("broken", [0, 1])
def test_a_ladder_missing_a_vertex_fails_its_vine(monkeypatch, broken):
    """Vine #0 is checked on a fresh table and the others on the pass's
    shared one; on either, a ladder walk that drops a vertex fails that
    vine at its q0 (for a single ear, the base-plus-ear cycle)."""
    from vinebound import bounds, enumerate_vines

    g = complete_graph(5)
    p = longest_path(g)
    l, c = p.length, longest_cycle(g).length
    vines = enumerate_vines(g, p, 200).vines
    real = bounds._ladder

    def dropped(vine, s, t):
        walk = real(vine, s, t)
        return walk[:-1] if vine == vines[broken] else walk

    monkeypatch.setattr(bounds, "_ladder", dropped)
    with pytest.raises(InternalInvariantError, match=r"^(q0|base-plus-ear) cycle "):
        verify_all_vines(g, p, l, c, 200)


def test_verify_all_longest_paths(x2):
    checked, violations = verify_all_longest_paths(x2, longest_path(x2), l=6, c=5)
    assert checked >= 1
    assert violations == []


@pytest.mark.parametrize("l, c, line", [
    (6, 4, "longest path #{k}: c >= m+2 violated: c=4 m=3"),
])
def test_verify_all_longest_paths_violation_lines(x2, l, c, line):
    # path #0 is the report's path, whose vine the report has checked
    checked, violations = verify_all_longest_paths(x2, longest_path(x2), l=l, c=c)
    assert checked == 4
    assert violations == [line.format(k=k) for k in range(1, 4)]


@pytest.mark.parametrize("l, message", [(5, "extends past l=5"), (7, "no path has length l=7")])
def test_verify_all_longest_paths_at_a_wrong_l_raises(x2, l, message):
    with pytest.raises(InternalInvariantError, match=message):
        verify_all_longest_paths(x2, longest_path(x2), l=l, c=5)


def test_verify_all_longest_paths_cap():
    g = cycle_graph(11)
    with pytest.raises(SolveBudgetError, match="^all_longest_paths: node budget exhausted$"):
        verify_all_longest_paths(g, longest_path(g), 10, 11, SolveLimits(node_budget=100))


def test_bound_holds_for_every_vine_on_fixtures(x1, x2, k4, theta):
    from vinebound import enumerate_vines

    for g in (x1, x2, k4, theta):
        p = longest_path(g)
        l, c = p.length, longest_cycle(g).length
        for vine in enumerate_vines(g, p, max_count=500).vines:
            y = c - vine.m - 2
            assert y >= 0
            assert c * c >= circumference_bound_squared(l, y, vine.m)


def test_analyze_on_the_whole_extremal_grid():
    # every (m, slack) the extremal-grid benchmark runs, up to n = 143
    for m in range(2, 21):
        for slack in (0, 2):
            spec = ExtremalSpec(m, slack)
            g, spine, _ = extremal_graph(spec)
            report = analyze(g)
            assert report.l == extremal_path_length(spec), spec
            assert report.c == extremal_cycle_length(spec), spec
            assert report.tight, spec
            assert report.path.vertices == spine.vertices, spec
            cyc = report.cycle.vertices
            assert cyc[0] == min(cyc) and cyc[1] < cyc[-1], spec
