"""The opt-in q = 16 tier, run with `pytest -m slow`; the default options
in pyproject.toml deselect it.  Building PG(3,16) and its Singer context
takes a few seconds and about 76 MB of peak RSS before any suite runs."""

import time
import tracemalloc
from array import array

import pytest

from ovoidlab import (ExtFieldCtx, build_geometry, elliptic_quadric,
                      singer_context, t_orbit_fibration, verify)
from ovoidlab.fibration import tangency_table
from ovoidlab.symplectic import member_polarity, polar_lines

pytestmark = pytest.mark.slow

# the codes suite took 9.3 s on the elimination path and takes about
# 1.3 s on the T-module path (2-vCPU Xeon VM, Python 3.11)
CODES_BUDGET_S = 3.0

# tracemalloc's current size after build_geometry(4): 51.4 MiB measured
# (Python 3.11), 20 % headroom above it
BUILD_BUDGET_MIB = 62


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
    tangency_table(fib, g)  # built by Proposition 1 in a full run
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
