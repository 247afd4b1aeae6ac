"""PG(3,16).  The suites' closed forms run in tier-1 on one module-scoped
Singer context (about 0.4 s to build).  The memory budgets, the oracle
builds, the full sweep and the spread search are the opt-in slow tier,
run with `pytest -m slow`; the default options in pyproject.toml
deselect it."""

import hashlib
import json
import time
import tracemalloc
from array import array

import pytest

from ovoidlab import (ExtFieldCtx, build_geometry, elliptic_quadric,
                      singer_context, t_orbit_fibration, verify)
from ovoidlab import ovoids
from ovoidlab.fibration import find_regular_spread_in_complex
from ovoidlab.projspace import line_typecode
from ovoidlab.symplectic import member_polarity, polar_lines

from test_gfield import ext_build_size
from test_orbits import differential
from test_projspace import assert_equals_mask_peeling_build
from test_regulus_kernel import listscan_search
from test_t_module import codes_suite_peak

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


@pytest.mark.slow
def test_search_q16_elliptic_is_pinned_and_equals_listscan(sc4):
    # about 0.9 s, and 1.6 s for the list-scan closure; line indices
    # here need 4-byte arrays, and the spread holds some above 65,535
    g = sc4.geometry
    tl = ovoids.tangent_lines(elliptic_quadric(g), g)
    sp, nodes = find_regular_spread_in_complex(tl, g, budget=1000)
    assert line_typecode(len(g.line_masks)) == "I" and max(sp) >= 1 << 16
    assert nodes == 4 and len(sp) == 257
    assert sp[:3] == (1, 289, 577)
    assert hashlib.sha256(json.dumps(list(sp)).encode()).hexdigest() \
        == SPREAD_Q16_SHA256
    assert listscan_search(tl, g, 1000) == (sp, nodes)
