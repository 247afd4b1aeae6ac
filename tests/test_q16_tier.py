"""PG(3,16).  The suites' closed forms, failing Proposition 1, Lemma 5
and codes reports, the pinned spread search and the Klein regularity
verdicts run in tier-1 on one module-scoped Singer context (about 0.4 s to
build).  The memory budgets, the oracle builds and eliminations, the full
sweep, the failing main theorem report and the list-scan search oracle
are the opt-in slow tier, run with `pytest -m slow`; the default options
in pyproject.toml deselect it."""

import hashlib
import json
import time
import tracemalloc
from array import array

import pytest

from ovoidlab import (ExtFieldCtx, build_geometry, elliptic_quadric,
                      singer_context, t_orbit_fibration, verify)
from ovoidlab import ovoids
from ovoidlab.fibration import (Spread, common_tangent_spread,
                                find_regular_spread_in_complex,
                                is_regular_spread)
from ovoidlab.gf2code import BitMat, code_C, code_D
from ovoidlab.symplectic import member_polarity, polar_lines

from test_gf2code import topbit_echelon
from test_gfield import ext_build_size
from test_orbits import differential
from test_projspace import assert_equals_mask_peeling_build
from test_regulus_kernel import listscan_search
from test_t_module import codes_suite_peak
from test_verify import corrupt_fibration, corrupt_sc

# the codes suite took 9.3 s on the elimination path and takes about
# 1.3 s on the T-module path (2-vCPU Xeon VM, Python 3.11)
CODES_BUDGET_S = 3.0

# tracemalloc's current size after build_geometry(4): 51.4 MiB measured
# (Python 3.11), 20 % headroom above it
BUILD_BUDGET_MIB = 62

# tracemalloc's peak during the codes suite on warm caches (1.34 MiB) and
# its current size after ExtFieldCtx.build(4) (0.40 MiB), measured
# (Python 3.11), 20 % headroom above each.  Building C, D and the grid
# list took the first to 27.8 MiB; list tables took the second to 5.5 MiB.
CODES_PEAK_BUDGET_MIB = 1.6
EXT_BUILD_BUDGET_MIB = 0.48


@pytest.mark.slow
def test_build_keeps_the_line_tables_small_q16():
    # runs before the module fixture builds a second geometry
    tracemalloc.start()
    try:
        g = build_geometry(4)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(g.line_pts, array) and g.line_pts.typecode == "H"
    assert len(g.line_pts) == 17 * 70161
    assert current <= BUILD_BUDGET_MIB * 2 ** 20, \
        f"{current / 2 ** 20:.1f} MiB"


@pytest.fixture(scope="module")
def sc4():
    g = build_geometry(4)
    return singer_context(g, ExtFieldCtx.build(4))


def test_codes_suite_q16_closed_forms_on_the_fast_path(sc4, monkeypatch):
    g = sc4.geometry
    fib = t_orbit_fibration(sc4)
    form = member_polarity(fib, 0, g)
    # 70,161 lines: the polar map needs 4-byte entries
    assert polar_lines(form, g).typecode == "I"
    calls = []
    real = verify.radical_codim_check
    monkeypatch.setattr(verify, "radical_codim_check",
                        lambda d: calls.append(d) or real(d))
    t0 = time.perf_counter()
    rep = verify.verify_radical_and_corollary3(form, sc4)
    elapsed = time.perf_counter() - t0
    c = rep.counters
    assert rep.passed and c["failures_total"] == 0
    # Sastry-Sin dim C = 1890; dim D and dim S as the elimination gives them
    assert (c["dim_C"], c["dim_C_perp"], c["dim_D"],
            c["dim_pairwise_sum_span"], c["radical_codim"]) == (
                1890, 4369 - 1890, 2024, 2023, 1)
    assert calls == []
    assert elapsed < CODES_BUDGET_S, f"{elapsed:.2f} s"


def test_codes_report_on_another_members_polarity_q16(sc4):
    # member 1's form where member 0's is required: the report fails, and
    # its full sweep eliminates C and D on 4-byte line indices (about 2.5 s)
    g = sc4.geometry
    form = member_polarity(t_orbit_fibration(sc4), 1, g)
    rep = verify.verify_radical_and_corollary3(form, sc4)
    c = rep.counters
    assert not rep.passed
    assert (c["dim_C"], c["dim_D"], c["dim_pairwise_sum_span"],
            c["failures_total"]) == (1890, 2024, 2023, 4112)
    assert rep.failures[0] == {
        "witness": "dual grid (4,56108) has orbit labels (9,0)",
        "indices": [4, 56108]}


def test_prop1_report_on_swapped_points_q16(sc4):
    # a point swapped between members 0 and 1: the fibration has no group,
    # so the full sweep profiles all 70,161 lines (about 0.5 s)
    g = sc4.geometry
    rep = verify.verify_proposition1(
        corrupt_fibration(t_orbit_fibration(sc4), g), g)
    assert not rep.passed
    assert rep.counters == {"spread": 255, "lines_checked": 69906,
                            "expected_profile": [1, 8, 8],
                            "failures_total": 498}
    assert rep.failures[0] == {
        "witness": "common tangent set has 255 lines, expected 257",
        "indices": []}
    assert rep.failures[2] == {
        "witness": "line 1 has profile (3, 7, 7), expected (1, 8, 8)",
        "indices": [1]}


def test_lemma5_report_on_a_transposed_t_perm_q16(sc4):
    # t_perm with entries 0 and 1 transposed: its cycles are no longer
    # q+1 orbits of q^2+1, so the report fails before any line is read
    rep = verify.verify_lemma5(corrupt_sc(sc4, "t_perm"))
    assert not rep.passed
    assert rep.counters == {"failures_total": 1}
    assert rep.failures == [{
        "witness": "T-orbit setup failed: T-orbits do not split as q+1 "
                   "sets of q^2+1",
        "indices": []}]


@pytest.mark.slow
def test_main_report_on_swapped_points_q16(sc4):
    # members 0 and 1 are no ovoids, so their forms fail; the other 15
    # polar maps are solved and swept on every dual grid (about 2.7 s)
    g = sc4.geometry
    rep = verify.verify_main_theorem(
        corrupt_fibration(t_orbit_fibration(sc4), g), g)
    assert not rep.passed
    assert rep.counters == {"theta0_choices": 15,
                            "dual_grids_checked": 493440,
                            "failures_total": 6969}
    assert rep.failures[0] == {
        "witness": "polarity from member 0 failed: input is not an ovoid: "
                   "line 277 meets the set in 3 points",
        "indices": [0]}
    assert rep.failures[2] == {
        "witness": "dual grid (1,4470) of W(theta_2) has a line without a "
                   "unique tangent member",
        "indices": [2, 1, 4470]}


@pytest.mark.slow
def test_reduced_echelon_ranks_equal_the_top_bit_oracle_q16(sc4):
    g = sc4.geometry
    form = member_polarity(t_orbit_fibration(sc4), 0, g)
    c, d = code_C(form, g), code_D(form, g)
    parity = 1 << g.n_points
    dp = BitMat((r | parity for r in d.rows), width=g.n_points + 1)
    for m in (c, d, dp):
        ech = topbit_echelon(m.rows)
        assert [p for p, _ in m._build_echelon()] == [p for p, _ in ech]
    assert (c.rank, d.rank, dp.rank) == (1890, 2024, 2024)


@pytest.mark.slow
def test_codes_suite_working_set_q16(sc4):
    rep, peak = codes_suite_peak(sc4)
    assert rep.passed
    assert peak <= CODES_PEAK_BUDGET_MIB * 2 ** 20, \
        f"{peak / 2 ** 20:.2f} MiB"
    # 70,161 lines: the memoized tangent sets need 4-byte entries too
    theta = t_orbit_fibration(sc4).members[0]
    assert ovoids._tangents(theta.mask, sc4.geometry).typecode == "I"


@pytest.mark.slow
def test_ext_build_keeps_two_byte_tables_q16():
    _, current = ext_build_size(4)
    assert current <= EXT_BUILD_BUDGET_MIB * 2 ** 20, \
        f"{current / 2 ** 20:.2f} MiB"


def test_lemma5_q16(sc4):
    rep = verify.verify_lemma5(sc4)
    assert rep.passed
    assert rep.counters["lines_in_spread"] == 257
    assert rep.counters["lines_not_in_spread"] == 257 * 272


def test_other_suites_q16(sc4):
    g = sc4.geometry
    q = g.q
    fib = t_orbit_fibration(sc4)
    grids = q * q * (q * q + 1) // 2
    reps = {
        "proposition1": verify.verify_proposition1(fib, g),
        "main_theorem": verify.verify_main_theorem(fib, g),
        "segre": verify.verify_segre(elliptic_quadric(g), g),
    }
    assert all(r.passed for r in reps.values())
    assert reps["proposition1"].counters["spread"] == q * q + 1
    assert reps["proposition1"].counters["lines_checked"] == (
        (q * q + 1) * (q * q + q))
    assert reps["main_theorem"].counters["theta0_choices"] == q + 1
    assert reps["main_theorem"].counters["dual_grids_checked"] == (
        (q + 1) * grids)
    assert reps["segre"].counters["tangent_lines"] == g.n_points


@pytest.mark.slow
def test_reduced_reports_equal_the_full_sweep_q16(sc4, monkeypatch):
    # 273 line orbits of 257 lines each, against the sweep of all 70,161
    reduced, full = differential(sc4, monkeypatch)
    assert reduced == full
    assert all(doc["pass"] for doc in full.values())


@pytest.mark.slow
def test_build_equals_the_mask_peeling_build_q16(sc4):
    assert_equals_mask_peeling_build(sc4.geometry)


# sha256 of the JSON list of the 257 lines the search finds in the
# elliptic quadric's tangent complex at q = 16
SPREAD_Q16_SHA256 = ("4ca29fe32669943d9ddc10938603e757"
                     "c4061c280f21db7d6a701440e6793ced")


def test_search_q16_elliptic_is_pinned(sc4):
    # about 25 ms; line indices here need 4-byte arrays, and the spread
    # holds some above 65,535
    g = sc4.geometry
    tl = ovoids.tangent_lines(elliptic_quadric(g), g)
    sp, nodes = find_regular_spread_in_complex(tl, g, budget=1000)
    assert max(sp) >= 1 << 16
    assert nodes == 4 and len(sp) == 257
    assert sp[:3] == (1, 289, 577)
    assert hashlib.sha256(json.dumps(list(sp)).encode()).hexdigest() \
        == SPREAD_Q16_SHA256


@pytest.mark.slow
def test_search_q16_elliptic_equals_listscan(sc4):
    # about 1.6 s for the list-scan closure
    g = sc4.geometry
    tl = ovoids.tangent_lines(elliptic_quadric(g), g)
    assert listscan_search(tl, g, 1000) == \
        find_regular_spread_in_complex(tl, g, budget=1000)


def test_klein_verdicts_q16(sc4):
    # the rank test on 257 Plücker points: the Singer spread is regular,
    # and replacing one of its reguli by the opposite regulus is not
    g = sc4.geometry
    spread = common_tangent_spread(t_orbit_fibration(sc4), g)
    assert max(spread.lines) >= 1 << 16
    assert is_regular_spread(spread, g) is True
    reg = g._regulus_lines(*spread.lines[:3])
    opp = g._transversal_lines(*spread.lines[:3])
    reversed_ = Spread(tuple(sorted((set(spread.lines) - set(reg))
                                    | set(opp))))
    assert reversed_ != spread
    assert is_regular_spread(reversed_, g) is False
