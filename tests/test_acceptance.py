"""Acceptance gate: ten exact criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (tolerance zero) and carries a wall-clock
budget asserted at the end of the test.
"""

import itertools
import json
import time

import pytest

from ovoidlab.cli import main as cli_main
from ovoidlab.fibration import (common_tangent_spread, is_regular_spread,
                                t_orbit_fibration, tangency_profile,
                                tangent_member)
from ovoidlab.gf2code import BitMat, in_span, radical_codim_check, t_orbit_sum
from ovoidlab.errors import NoQuadric
from ovoidlab.ovoids import elliptic_quadric, fit_quadric, tangent_lines
from ovoidlab.symplectic import (enumerate_dual_grids, isotropic_lines,
                                 polarity_from_ovoid)
from ovoidlab.verify import (verify_lemma5, verify_main_theorem,
                             verify_proposition1,
                             verify_radical_and_corollary3, verify_segre)

from test_verify import (corrupt_fibration, corrupt_sc, swap_points)


class Criterion:
    """Context manager printing one PASS/FAIL line with the elapsed time."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} [{verdict}] {self.label} "
              f"({elapsed:.2f}s, budget {self.budget_s}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded {self.budget_s}s budget")
        return False


def exit_code_for(report):
    """The CLI contract for a single report: 0 = pass, 1 = failure."""
    return 0 if report.passed else 1


def test_criterion_1_geometry_counts(geo1, geo2, geo3):
    with Criterion(1, "geometry counts and Steiner property", 5):
        for g in (geo1, geo2, geo3):
            q = g.q
            assert len(g.points) == (q * q + 1) * (q + 1)
            assert len(g.lines) == (q * q + 1) * (q * q + q + 1)
            # every point pair on exactly one line
            npts = len(g.points)
            assert len(g.pair_to_line) == npts * (npts - 1) // 2
            per_line = (q + 1) * q // 2
            assert len(g.lines) * per_line == len(g.pair_to_line)


def test_criterion_2_ovoid_constructors(geo1, geo2, geo3, tits3):
    with Criterion(2, "ovoid constructors and NoQuadric for Tits", 30):
        for g, size in ((geo1, 5), (geo2, 17), (geo3, 65)):
            theta = elliptic_quadric(g)
            assert len(theta.pts) == size
            for a, b in itertools.combinations(theta.pts, 2):
                li = g.pair_to_line[(a, b)]
                assert (g.lines[li].mask & theta.mask).bit_count() == 2
        assert len(tits3.pts) == 65
        # exhaustive triples at q=8
        for a, b, c in itertools.combinations(tits3.pts, 3):
            assert not geo3.is_collinear(a, b, c)
        with pytest.raises(NoQuadric):
            fit_quadric(tits3.pts, geo3)


def test_criterion_3_proposition_1(fib2, geo2, fib3, geo3):
    with Criterion(3, "Singer spread regularity and (1,q/2,q/2) profiles",
                   60):
        for f, g in ((fib2, geo2), (fib3, geo3)):
            q = g.q
            s = common_tangent_spread(f, g)
            assert len(s.lines) == q * q + 1
            for a, b in itertools.combinations(s.lines, 2):
                assert not (g.lines[a].mask & g.lines[b].mask)
            assert is_regular_spread(s, g, sample=None)
            members = set(s.lines)
            expected = (1, q // 2, q // 2)
            for ln in g.lines:
                if ln.index in members:
                    assert tangency_profile(ln.mask, f) == (q + 1, 0, 0)
                else:
                    assert tangency_profile(ln.mask, f) == expected


def test_criterion_4_line_orbit_sums(sc2, fib2, geo2, sc3, fib3, geo3):
    with Criterion(4, "T-orbit sum of every line (357 and 4745)", 60):
        for sc, f, g in ((sc2, fib2, geo2), (sc3, fib3, geo3)):
            spread = set(common_tangent_spread(f, g).lines)
            assert len(g.lines) == {4: 357, 8: 4745}[g.q]
            for ln in g.lines:
                s = t_orbit_sum(ln, sc)
                if ln.index in spread:
                    assert s == g.all_one
                else:
                    lbl = tangent_member(ln.mask, f)
                    assert lbl is not None
                    assert s == f.members[lbl].mask


def test_criterion_5_main_theorem_full_sweep(fib2, geo2, fib3, geo3):
    with Criterion(5, "dual-grid labels distinct and nonzero, all theta0",
                   300):
        for f, g, n_grids in ((fib2, geo2, 136), (fib3, geo3, 2080)):
            r = verify_main_theorem(f, g)  # sweeps every theta0
            assert r.passed, r.failures
            assert r.counters["theta0_choices"] == g.q + 1
            assert r.counters["dual_grids_checked"] == n_grids * (g.q + 1)


def test_criterion_6_radical_codimension(form2, geo2, form3, geo3):
    with Criterion(6, "radical codimension 1, no grid in pairwise-sum span",
                   120):
        from ovoidlab.gf2code import code_D
        for form, g in ((form2, geo2), (form3, geo3)):
            d = code_D(form, g)
            dim_d, dim_sum, codim = radical_codim_check(d)
            assert codim == 1
            sums = BitMat((d.rows[0] ^ r for r in d.rows[1:]), width=d.width)
            assert sums.rank == dim_sum
            for row in d.rows:
                assert not in_span(row, sums)


def test_criterion_7_code_containment(form2, sc2, geo2, form3, sc3, geo3):
    with Criterion(7, "D strictly inside C-perp; sigma(grid) = E_i + E_j",
                   120):
        from ovoidlab.gf2code import code_C, code_D
        for form, sc, g in ((form2, sc2, geo2), (form3, sc3, geo3)):
            f = t_orbit_fibration(sc)
            c = code_C(form, g)
            d = code_D(form, g)
            for drow in d.rows:
                for crow in c.rows:
                    assert (drow & crow).bit_count() % 2 == 0
            assert d.rank < g.n_points - c.rank
            for dg in enumerate_dual_grids(form, g):
                i = tangent_member(g.lines[dg.m].mask, f)
                j = tangent_member(g.lines[dg.m_perp].mask, f)
                assert i is not None and j is not None
                assert i != j and i != 0 and j != 0
                s = (t_orbit_sum(g.lines[dg.m], sc)
                     ^ t_orbit_sum(g.lines[dg.m_perp], sc))
                assert s == f.members[i].mask ^ f.members[j].mask


def test_criterion_8_polarity_reconstruction(quadric2, geo2, quadric3,
                                             tits3, geo3):
    with Criterion(8, "reconstructed polarity matches tangents, perp-swap",
                   60):
        for theta, g in ((quadric2, geo2), (quadric3, geo3), (tits3, geo3)):
            form = polarity_from_ovoid(theta, g)
            tl = set(tangent_lines(theta, g))
            assert set(isotropic_lines(form, g)) == tl
            from ovoidlab.symplectic import perp_line
            for ln in g.lines:
                if ln.index in tl:
                    continue
                perp = perp_line(ln, form, g)
                meets = (perp.mask & theta.mask).bit_count()
                mine = (ln.mask & theta.mask).bit_count()
                assert {mine, meets} == {0, 2}


def test_criterion_9_mutation_sensitivity(fib2, sc2, form2, quadric2, geo2):
    with Criterion(9, "each suite fails on its canned corruptions", 60):
        bad_fib = corrupt_fibration(fib2, geo2)
        bad_sc = corrupt_sc(sc2, "t_perm")
        off = next(p for p in range(geo2.n_points)
                   if not (quadric2.mask >> p) & 1)
        bad_theta = swap_points(quadric2, geo2, off)
        reports = [
            verify_proposition1(bad_fib, geo2),
            verify_lemma5(bad_sc),
            verify_main_theorem(bad_fib, geo2, theta0=0),
            verify_radical_and_corollary3(form2, bad_sc),
            verify_segre(bad_theta, geo2),
        ]
        for r in reports:
            assert exit_code_for(r) == 1
            assert r.failures


def test_criterion_10_determinism(capsys, tmp_path):
    with Criterion(10, "verify --suite all --n 3: threads 1 == threads 8",
                   600):
        docs = []
        for threads in ("1", "8"):
            code = cli_main(["verify", "--n", "3", "--suite", "all",
                             "--threads", threads, "--no-cache",
                             "--format", "json"])
            assert code == 0
            docs.append(json.loads(capsys.readouterr().out))
        for rep in docs[0] + docs[1]:
            rep.pop("elapsed_ms")
        assert docs[0] == docs[1]
