"""Metamorphic check of the five suites (Chen, Cheung and Yiu, 1998): a
collineation M of PG(3,q) maps every input to an equivalent one, so every
counter of every report must stay the same, on one line per orbit of the
conjugated Singer group and on the full sweep alike."""

import random

import pytest

from ovoidlab import verify
from ovoidlab.fibration import (Fibration, SingerContext, fibration_orbits,
                                t_orbit_fibration, trivial_orbits)
from ovoidlab.gf2code import t_module_counters
from ovoidlab.gfield import mat_identity, mat_mul
from ovoidlab.ovoids import Ovoid, elliptic_quadric
from ovoidlab.projspace import point_permutation
from ovoidlab.symplectic import (member_polarity, polar_lines,
                                 polarity_from_ovoid)
from ovoidlab.verify import (verify_lemma5, verify_main_theorem,
                             verify_proposition1,
                             verify_radical_and_corollary3, verify_segre)


def collineation(g, seed: int, steps: int = 12):
    """(M, M^-1) for M a seeded product of elementary matrices I + a E_ij
    (i != j) and one diagonal matrix.  In characteristic 2 each elementary
    matrix is its own inverse, so M^-1 is the product of the inverses in
    reverse order."""
    rng, ctx = random.Random(seed), g.ctx
    m = m_inv = mat_identity()
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        e = [list(row) for row in mat_identity()]
        e[i][j] = rng.randrange(1, g.q)
        m, m_inv = mat_mul(ctx, m, e), mat_mul(ctx, e, m_inv)
    diag = [rng.randrange(1, g.q) for _ in range(4)]
    m = mat_mul(ctx, m, [[d if i == j else 0 for j in range(4)]
                         for i, d in enumerate(diag)])
    m_inv = mat_mul(ctx, [[ctx.inv(d) if i == j else 0 for j in range(4)]
                          for i, d in enumerate(diag)], m_inv)
    assert mat_mul(ctx, m, m_inv) == mat_identity()
    return m, m_inv


def mapped_ovoid(ov: Ovoid, perm) -> Ovoid:
    return Ovoid.from_points((perm[p] for p in ov.pts), ov.kind)


def conjugated(sc: SingerContext, m, m_inv) -> SingerContext:
    """The Singer context of M gen M^-1, its permutations recomputed so
    that its T-orbits and orbit sums are those of the conjugated T."""
    g, ctx = sc.geometry, sc.geometry.ctx
    gen = mat_mul(ctx, m, mat_mul(ctx, sc.gen, m_inv))
    t_gen = mat_mul(ctx, m, mat_mul(ctx, sc.t_gen, m_inv))
    return SingerContext(g, sc.ext, gen, t_gen,
                         tuple(point_permutation(g, gen)),
                         tuple(point_permutation(g, t_gen)))


def projective(gram, ctx) -> list:
    """The flattened matrix scaled so that its first nonzero entry is 1."""
    flat = [x for row in gram for x in row]
    lead = ctx.inv(next(x for x in flat if x))
    return [ctx.mul(lead, x) for x in flat]


def reports(f, sc, form, theta, g, monkeypatch, full: bool) -> dict:
    """Every report without elapsed_ms; the codes suite twice, on the
    T-module path and on the elimination path.  full runs the fibration
    suites under the trivial group; otherwise a suite that enters the
    full sweep fails the test."""
    def entered(f, g):
        raise AssertionError("the full sweep was entered")

    with monkeypatch.context() as patch:
        if full:
            patch.setattr(verify, "fibration_orbits", trivial_orbits)
        else:
            patch.setattr(verify, "trivial_orbits", entered)
        out = {"prop1": verify_proposition1(f, g),
               "lemma5": verify_lemma5(sc),
               "main": verify_main_theorem(f, g),
               "codes": verify_radical_and_corollary3(form, sc),
               "segre": verify_segre(theta, g)}
        patch.setattr(verify, "t_module_counters", lambda *a: None)
        out["codes_eliminated"] = verify_radical_and_corollary3(form, sc)
    docs = {name: rep.to_dict() for name, rep in out.items()}
    for doc in docs.values():
        doc.pop("elapsed_ms")
    return docs


@pytest.mark.parametrize("n, seed", [(2, 4), (3, 8)])
def test_suites_are_invariant_under_a_collineation(n, seed, request,
                                                   monkeypatch):
    g = request.getfixturevalue(f"geo{n}")
    sc = request.getfixturevalue(f"sc{n}")
    fib = request.getfixturevalue(f"fib{n}")
    m, m_inv = collineation(g, seed)
    perm = point_permutation(g, m)
    assert perm != list(range(g.n_points))

    members = sorted((mapped_ovoid(ov, perm) for ov in fib.members),
                     key=lambda ov: ov.pts[0])
    msc = conjugated(sc, m, m_inv)
    assert all(msc.t_perm[perm[x]] == perm[t]
               for x, t in enumerate(sc.t_perm))
    mfib = t_orbit_fibration(msc)
    assert mfib.members == tuple(members) != fib.members

    form = member_polarity(fib, 0, g)
    mform = member_polarity(mfib, 0, g)
    orbits = fibration_orbits(mfib, g)
    assert t_module_counters(polar_lines(form, g), fibration_orbits(fib, g),
                             sc) is not None
    assert t_module_counters(polar_lines(mform, g), orbits,
                             msc) is not None
    assert orbits.reduced and orbits.members == [(0, g.q + 1)]

    quadric = elliptic_quadric(g)
    mquadric = mapped_ovoid(quadric, perm)
    want = reports(fib, sc, form, quadric, g, monkeypatch, full=False)
    assert all(doc["pass"] for doc in want.values())
    assert reports(mfib, msc, mform, mquadric, g, monkeypatch,
                   full=False) == want
    assert reports(fib, sc, form, quadric, g, monkeypatch, full=True) == want
    assert reports(Fibration(tuple(members)), msc, mform, mquadric, g,
                   monkeypatch, full=True) == want

    # the polarity of the image of member i is M^-T G_i M^-1, G_i the
    # polarity of member i, up to a scalar
    ctx = g.ctx
    m_inv_t = tuple(zip(*m_inv))
    for ov in fib.members:
        gram = polarity_from_ovoid(ov, g).gram
        image = polarity_from_ovoid(mapped_ovoid(ov, perm), g).gram
        assert projective(image, ctx) == projective(
            mat_mul(ctx, m_inv_t, mat_mul(ctx, gram, m_inv)), ctx)
