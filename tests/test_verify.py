import dataclasses

import pytest

from ovoidlab.fibration import Fibration, SingerContext
from ovoidlab.ovoids import Ovoid
from ovoidlab.verify import (verify_lemma5, verify_main_theorem,
                             verify_proposition1,
                             verify_radical_and_corollary3, verify_segre)

ALL_SUITES = ["prop1", "lemma5", "main", "codes", "segre"]


def run_suite(name, *, f, sc, form, g, theta):
    if name == "prop1":
        return verify_proposition1(f, g)
    if name == "lemma5":
        return verify_lemma5(sc)
    if name == "main":
        return verify_main_theorem(f, g)
    if name == "codes":
        return verify_radical_and_corollary3(form, sc)
    if name == "segre":
        return verify_segre(theta, g)
    raise AssertionError(name)


def ctx4(request):
    return dict(f=request.getfixturevalue("fib2"),
                sc=request.getfixturevalue("sc2"),
                form=request.getfixturevalue("form2"),
                g=request.getfixturevalue("geo2"),
                theta=request.getfixturevalue("quadric2"))


def ctx8(request):
    return dict(f=request.getfixturevalue("fib3"),
                sc=request.getfixturevalue("sc3"),
                form=request.getfixturevalue("form3"),
                g=request.getfixturevalue("geo3"),
                theta=request.getfixturevalue("quadric3"))


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_suites_pass_q4(suite, request):
    r = run_suite(suite, **ctx4(request))
    assert r.passed
    assert r.failures == []
    assert r.counters["failures_total"] == 0
    assert r.q == 4
    assert r.advisory is None


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_suites_pass_q8(suite, request):
    r = run_suite(suite, **ctx8(request))
    assert r.passed
    assert r.failures == []
    assert r.q == 8


def swap_points(ov: Ovoid, g, off_point):
    """Replace the first ovoid point with a point off the ovoid."""
    pts = (off_point,) + ov.pts[1:]
    return dataclasses.replace(ov, pts=pts,
                               mask=ov.mask ^ (1 << ov.pts[0]) ^ (1 << off_point))


def corrupt_fibration(f: Fibration, g) -> Fibration:
    """Swap one point between two members."""
    a, b = f.members[0], f.members[1]
    a2 = swap_points(a, g, b.pts[0])
    b2 = swap_points(b, g, a.pts[0])
    return Fibration(members=(a2, b2) + f.members[2:])


def corrupt_sc(sc: SingerContext, which) -> SingerContext:
    perm = list(getattr(sc, which))
    perm[0], perm[1] = perm[1], perm[0]
    return dataclasses.replace(sc, **{which: tuple(perm)})


# --- prop1 mutations -------------------------------------------------------

def test_prop1_mutation_swapped_points(fib2, geo2):
    r = verify_proposition1(corrupt_fibration(fib2, geo2), geo2)
    assert not r.passed and r.failures


def test_prop1_mutation_dropped_member(fib2, geo2):
    r = verify_proposition1(Fibration(members=fib2.members[:-1]), geo2)
    assert not r.passed and r.failures


def test_prop1_mutation_duplicate_member(fib2, geo2):
    bad = Fibration(members=fib2.members[:-1] + (fib2.members[0],))
    r = verify_proposition1(bad, geo2)
    assert not r.passed and r.failures


# --- lemma5 mutations ------------------------------------------------------

def test_lemma5_mutation_t_perm(sc2):
    r = verify_lemma5(corrupt_sc(sc2, "t_perm"))
    assert not r.passed and r.failures


def test_lemma5_mutation_t_perm_elsewhere(sc2):
    perm = list(sc2.t_perm)
    perm[10], perm[40], perm[70] = perm[40], perm[70], perm[10]
    r = verify_lemma5(dataclasses.replace(sc2, t_perm=tuple(perm)))
    assert not r.passed and r.failures


def test_lemma5_mutation_identity_t(sc2, geo2):
    ident = tuple(range(geo2.n_points))
    r = verify_lemma5(dataclasses.replace(sc2, t_perm=ident))
    assert not r.passed and r.failures


# --- main theorem mutations ------------------------------------------------

def test_main_mutation_swapped_points(fib2, geo2):
    r = verify_main_theorem(corrupt_fibration(fib2, geo2), geo2, theta0=0)
    assert not r.passed and r.failures


def test_main_mutation_non_ovoid_member(fib2, geo2):
    # replace theta_0 by a non-ovoid set of the same size: no polarity
    pts = tuple(range(17))
    bad0 = Ovoid.from_points(pts, kind="mutant")
    r = verify_main_theorem(Fibration(members=(bad0,) + fib2.members[1:]),
                            geo2, theta0=0)
    assert not r.passed and r.failures


def test_main_mutation_duplicate_member(fib2, geo2):
    # theta_0 replaced by a copy of theta_1: grid lines tangent to theta_1
    # now carry label 0, violating "both labels distinct from theta_0"
    r = verify_main_theorem(Fibration(members=(fib2.members[1],)
                                      + fib2.members[1:]), geo2, theta0=0)
    assert not r.passed and r.failures


# --- codes mutations -------------------------------------------------------

def test_codes_mutation_t_perm(form2, sc2):
    r = verify_radical_and_corollary3(form2, corrupt_sc(sc2, "t_perm"))
    assert not r.passed and r.failures


def test_codes_mutation_wrong_form(form2, sc2):
    # conjugate the Gram matrix by a coordinate swap: still a symplectic
    # form, but no longer the polarity of the label-0 orbit
    swap = (2, 1, 0, 3)
    gram = tuple(tuple(form2.gram[swap[i]][swap[j]] for j in range(4))
                 for i in range(4))
    r = verify_radical_and_corollary3(dataclasses.replace(form2, gram=gram),
                                      sc2)
    assert not r.passed and r.failures


def test_codes_mutation_t_perm_elsewhere(form2, sc2):
    perm = list(sc2.t_perm)
    perm[5], perm[6] = perm[6], perm[5]
    r = verify_radical_and_corollary3(
        form2, dataclasses.replace(sc2, t_perm=tuple(perm)))
    assert not r.passed and r.failures


def test_codes_zero_row_report_is_pinned(form2, sc2, monkeypatch):
    # a zero row in D puts every dual grid row in the pairwise-sum span;
    # the report is the one the former per-row span test produced
    from ovoidlab import verify
    from ovoidlab.gf2code import BitMat
    real = verify.code_D

    def with_zero_row(f, g):
        d = real(f, g)
        return BitMat([0] + d.rows, width=d.width)

    monkeypatch.setattr(verify, "code_D", with_zero_row)
    r = verify_radical_and_corollary3(form2, sc2).to_dict()
    r.pop("elapsed_ms")
    assert r == {
        "theorem": "radical_corollary3",
        "q": 4,
        "pass": False,
        "counters": {"lines_of_W": 85, "dual_grids": 136, "dim_C": 50,
                     "dim_C_perp": 35, "dim_D": 34,
                     "dim_pairwise_sum_span": 34, "radical_codim": 0,
                     "failures_total": 138},
        "failures": [{"witness": "radical codimension is 0, expected 1",
                      "indices": []}]
        + [{"witness": f"dual grid row {i} lies in the pairwise-sum span",
            "indices": [i]} for i in range(19)],
    }


# --- segre mutations -------------------------------------------------------

def test_segre_mutation_swapped_point(quadric2, geo2):
    off = next(p for p in range(geo2.n_points)
               if not (quadric2.mask >> p) & 1)
    r = verify_segre(swap_points(quadric2, geo2, off), geo2)
    assert not r.passed and r.failures


def test_segre_mutation_plane_section(geo2):
    plane_pts = tuple(sorted(geo2.planes[0].pts))[:17]
    r = verify_segre(Ovoid.from_points(plane_pts, kind="mutant"), geo2)
    assert not r.passed and r.failures


def test_segre_mutation_short_set(quadric2, geo2):
    r = verify_segre(Ovoid.from_points(quadric2.pts[:-1], kind="mutant"),
                     geo2)
    assert not r.passed and r.failures


# --- report contract -------------------------------------------------------

def test_q2_advisory(geo1, sc1_factory=None):
    from ovoidlab.fibration import singer_context, t_orbit_fibration
    from ovoidlab.gfield import ExtFieldCtx
    sc = singer_context(geo1, ExtFieldCtx.build(1))
    f = t_orbit_fibration(sc)
    r = verify_main_theorem(f, geo1)
    assert r.passed
    assert r.advisory and "advisory" in r.to_dict()


def test_report_determinism(fib2, geo2):
    a = verify_proposition1(fib2, geo2).to_dict()
    b = verify_proposition1(fib2, geo2).to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_failure_witnesses_capped(fib2, geo2):
    r = verify_proposition1(corrupt_fibration(fib2, geo2), geo2)
    assert len(r.failures) <= 20
    assert r.counters["failures_total"] >= len(r.failures)
