"""Theorem-level verification suites producing structured pass/fail reports.

Every suite records failures as witnesses instead of raising, so a
corrupted input yields a failing report rather than a traceback.  Reports
are deterministic for identical inputs, elapsed_ms aside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import NoPolarity, NotASpread, OvoidlabError
from .fibration import (Fibration, SingerContext, Spread,
                        common_tangent_spread, common_tangents,
                        is_regular_spread, t_orbit_fibration, tangency_table)
from .gf2code import (code_C, code_D, orthogonal, radical_codim_check,
                      t_module_counters, t_orbit_sum)
from .ovoids import Ovoid, tangent_lines
from .projspace import GeometryTables
from .symplectic import (SymplecticForm, enumerate_dual_grids,
                         isotropic_lines, member_polarity, perp_planes,
                         polar_lines, polarity_from_ovoid)

MAX_WITNESSES = 20

_Q2_NOTE = "q=2 is outside the paper's hypotheses (q = 2^n > 2); advisory only"


@dataclass
class VerificationReport:
    theorem: str
    q: int
    passed: bool
    counters: dict
    failures: list
    elapsed_ms: int
    advisory: str | None = None

    def to_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "q": self.q,
            "pass": self.passed,
            "counters": self.counters,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.advisory:
            out["advisory"] = self.advisory
        return out


class _Recorder:
    """Shared failure bookkeeping: witnesses are capped, counts are not."""

    def __init__(self):
        self.failures: list = []
        self.count = 0

    def fail(self, description: str, indices=()):
        self.count += 1
        if len(self.failures) < MAX_WITNESSES:
            self.failures.append({"witness": description,
                                  "indices": list(indices)})


def _finish(theorem: str, g: GeometryTables, rec: _Recorder,
            counters: dict, start: float) -> VerificationReport:
    counters["failures_total"] = rec.count
    return VerificationReport(
        theorem=theorem,
        q=g.q,
        passed=rec.count == 0,
        counters=counters,
        failures=rec.failures,
        elapsed_ms=int((time.monotonic() - start) * 1000),
        advisory=_Q2_NOTE if g.q == 2 else None,
    )


def verify_proposition1(f: Fibration, g: GeometryTables) -> VerificationReport:
    """Common tangents form a regular spread; tangent complexes pairwise
    meet in it; every non-spread line has profile (1, q/2, q/2)."""
    start = time.monotonic()
    rec = _Recorder()
    q = g.q
    counters: dict = {}

    common = common_tangents(f, g)
    counters["spread"] = len(common)
    spread_set = set(common)
    if len(common) != q * q + 1:
        rec.fail(f"common tangent set has {len(common)} lines, "
                 f"expected {q * q + 1}")
    else:
        try:
            if not is_regular_spread(Spread(tuple(common)), g):
                rec.fail("common tangent spread fails regulus closure")
        except NotASpread:
            rec.fail("common tangent lines do not form a spread")

    # tangent complexes pairwise intersect exactly in the spread
    try:
        complexes = [set(tangent_lines(ov, g)) for ov in f.members]
        for i in range(len(complexes)):
            for j in range(i + 1, len(complexes)):
                meet = complexes[i] & complexes[j]
                if meet != spread_set:
                    rec.fail(f"tangent complexes {i} and {j} meet in "
                             f"{len(meet)} lines, expected the spread", (i, j))
    except OvoidlabError as exc:
        rec.fail(f"tangent complex computation failed: {exc}")

    want = (1, q // 2, q // 2)
    lines_checked = 0
    profiles = tangency_table(f, g)[0]
    for ln in g.lines:
        if ln.index in spread_set:
            continue
        lines_checked += 1
        prof = profiles[ln.index]
        if prof != want:
            rec.fail(f"line {ln.index} has profile {prof}, "
                     f"expected {want}", (ln.index,))
    counters["lines_checked"] = lines_checked
    counters["expected_profile"] = list(want)
    return _finish("proposition1", g, rec, counters, start)


def verify_lemma5(sc: SingerContext) -> VerificationReport:
    """T-orbit sum of every line is the all-one vector (spread lines) or
    the characteristic vector of the unique tangent T-orbit."""
    start = time.monotonic()
    g = sc.geometry
    rec = _Recorder()
    counters: dict = {}
    try:
        fib = t_orbit_fibration(sc)
        spread = set(common_tangent_spread(fib, g).lines)
    except OvoidlabError as exc:
        rec.fail(f"T-orbit setup failed: {exc}")
        return _finish("lemma5", g, rec, counters, start)

    labels = tangency_table(fib, g)[1]
    in_spread = not_in_spread = 0
    weight_hist: dict[int, int] = {}
    for ln in g.lines:
        s = t_orbit_sum(ln, sc)
        w = s.bit_count()
        weight_hist[w] = weight_hist.get(w, 0) + 1
        if ln.index in spread:
            in_spread += 1
            if s != g.all_one:
                rec.fail(f"spread line {ln.index} orbit sum is not all-one",
                         (ln.index,))
        else:
            not_in_spread += 1
            lbl = labels[ln.index]
            if lbl is None:
                rec.fail(f"line {ln.index} has no unique tangent orbit",
                         (ln.index,))
            elif s != fib.members[lbl].mask:
                rec.fail(f"line {ln.index} orbit sum differs from its "
                         f"tangent orbit E_{lbl}", (ln.index, lbl))
    counters["lines_in_spread"] = in_spread
    counters["lines_not_in_spread"] = not_in_spread
    counters["weight_histogram"] = {str(k): v for k, v
                                    in sorted(weight_hist.items())}
    return _finish("lemma5", g, rec, counters, start)


def verify_main_theorem(f: Fibration, g: GeometryTables,
                        theta0: int | None = None) -> VerificationReport:
    """For every dual grid of the W(q) defined by theta_0, the two lines
    are tangent to distinct members, both distinct from theta_0.

    theta0=None sweeps every member as the distinguished ovoid.  A
    fibration with no members, or a theta0 naming no member, fails.
    """
    start = time.monotonic()
    rec = _Recorder()
    counters: dict = {}
    n_members = len(f.members)
    if not n_members:
        rec.fail("the fibration has no members")
    choices = range(n_members) if theta0 is None else (theta0,)
    labels = tangency_table(f, g)[1]
    grids_checked = 0
    choices_done = 0
    for t0 in choices:
        if not 0 <= t0 < n_members:
            rec.fail(f"theta_0 = {t0} is not a member index (the "
                     f"fibration has {n_members} members)", (t0,))
            continue
        try:
            form = member_polarity(f, t0, g)
        except OvoidlabError as exc:
            rec.fail(f"polarity from member {t0} failed: {exc}", (t0,))
            continue
        choices_done += 1
        # the dual grids are the 2-cycles m < m^perp of the polar map
        for m, mp in enumerate(polar_lines(form, g)):
            if m >= mp:
                continue
            grids_checked += 1
            j, k = labels[m], labels[mp]
            if j is None or k is None:
                rec.fail(f"dual grid ({m},{mp}) of W(theta_{t0}) "
                         "has a line without a unique tangent member",
                         (t0, m, mp))
            elif j == k or j == t0 or k == t0:
                rec.fail(f"dual grid ({m},{mp}) of W(theta_{t0}) "
                         f"has labels ({j},{k})", (t0, m, mp))
    counters["theta0_choices"] = choices_done
    counters["dual_grids_checked"] = grids_checked
    return _finish("main_theorem", g, rec, counters, start)


def verify_radical_and_corollary3(form: SymplecticForm, sc: SingerContext
                                  ) -> VerificationReport:
    """Theorem 1.4 and Corollary 3 as rank statements: the pairwise-sum
    span has codimension exactly 1 in D, no dual grid lies in it, D sits
    strictly inside C-perp, and the orbit sum of every dual grid is the
    sum of two distinct nonzero-labeled T-orbits.

    The form must be the polarity of the least T-orbit (label 0)."""
    start = time.monotonic()
    g = sc.geometry
    rec = _Recorder()
    counters: dict = {}
    try:
        fib = t_orbit_fibration(sc)
    except OvoidlabError as exc:
        rec.fail(f"T-orbit setup failed: {exc}")
        return _finish("radical_corollary3", g, rec, counters, start)

    C = code_C(form, g)
    D = code_D(form, g)
    grids = enumerate_dual_grids(form, g)
    counters["lines_of_W"] = len(C.rows)
    counters["dual_grids"] = len(grids)

    # the T-module ranks when T provably maps both row sets onto
    # themselves, else one elimination of each code
    fast = t_module_counters(form, sc, fib, C, D)
    if fast is None:
        dim_d, dim_sum, _ = radical_codim_check(D)
        dim_c = C.rank
        d_in_c_perp = orthogonal(D, C)
    else:
        dim_c, dim_d, dim_sum, d_in_c_perp = fast
    codim = dim_d - dim_sum
    counters.update(dim_C=dim_c, dim_C_perp=g.n_points - dim_c,
                    dim_D=dim_d, dim_pairwise_sum_span=dim_sum,
                    radical_codim=codim)
    if codim != 1:
        rec.fail(f"radical codimension is {codim}, expected 1")

    # no single dual grid lies in the pairwise-sum span S: D = S + <row_0>
    # and row_i = row_0 + (row_0 + row_i), so row_i lies in S exactly when
    # row_0 does, that is when the codimension is 0
    if codim == 0:
        for idx in range(len(D.rows)):
            rec.fail(f"dual grid row {idx} lies in the pairwise-sum span",
                     (idx,))

    # D subset C-perp, with strict containment; the generator pairs are
    # swept only to name the witnesses
    if not d_in_c_perp:
        for di, drow in enumerate(D.rows):
            for ci, crow in enumerate(C.rows):
                if (drow & crow).bit_count() & 1:
                    rec.fail(f"dual grid {di} meets W(q)-line {ci} oddly",
                             (di, ci))
                    break
    if not dim_d < g.n_points - dim_c:
        rec.fail(f"dim D = {dim_d} is not strictly below "
                 f"dim C-perp = {g.n_points - dim_c}")

    # sigma of each dual grid is E_i + E_j, 0 < i != j
    labels = tangency_table(fib, g)[1]
    for dg in grids:
        s = t_orbit_sum(g.lines[dg.m], sc) ^ t_orbit_sum(g.lines[dg.m_perp], sc)
        i, j = labels[dg.m], labels[dg.m_perp]
        if i is None or j is None or i == j or i == 0 or j == 0:
            rec.fail(f"dual grid ({dg.m},{dg.m_perp}) has orbit labels "
                     f"({i},{j})", (dg.m, dg.m_perp))
        elif s != fib.members[i].mask ^ fib.members[j].mask:
            rec.fail(f"sigma of dual grid ({dg.m},{dg.m_perp}) is not "
                     f"E_{i} + E_{j}", (dg.m, dg.m_perp))
    return _finish("radical_corollary3", g, rec, counters, start)


def verify_segre(theta: Ovoid, g: GeometryTables) -> VerificationReport:
    """The Segre polarity of an ovoid exists, its isotropic lines are the
    tangents, tangent planes match point perps, and perp swaps secant and
    external lines."""
    start = time.monotonic()
    rec = _Recorder()
    counters: dict = {}
    try:
        tset = set(tangent_lines(theta, g))
    except OvoidlabError as exc:
        rec.fail(f"tangent sweep failed: {exc}")
        return _finish("segre", g, rec, counters, start)
    counters["tangent_lines"] = len(tset)
    try:
        form = polarity_from_ovoid(theta, g)
    except NoPolarity as exc:
        rec.fail(f"no symplectic polarity: {exc}")
        return _finish("segre", g, rec, counters, start)

    iso = set(isotropic_lines(form, g))
    if iso != tset:
        rec.fail(f"isotropic lines ({len(iso)}) differ from tangent "
                 f"lines ({len(tset)})")

    # tangent planes: the q+1 tangents through x cover exactly x^perp
    perp = perp_planes(form, g)
    for x in theta.pts:
        through = [li for li in g.point_to_lines[x] if li in tset]
        if len(through) != g.q + 1:
            rec.fail(f"point {x} has {len(through)} tangents", (x,))
            continue
        union = 0
        for li in through:
            union |= g.lines[li].mask
        if union != g.planes[perp[x]].mask:
            rec.fail(f"tangents through {x} do not cover its perp plane",
                     (x,))

    # tangent/secant swap under perp for every non-tangent line
    swaps = 0
    polar = polar_lines(form, g)
    for ln in g.lines:
        if ln.index in tset:
            continue
        mp = g.lines[polar[ln.index]]
        meets = {(ln.mask & theta.mask).bit_count(),
                 (mp.mask & theta.mask).bit_count()}
        swaps += 1
        if meets != {0, 2}:
            rec.fail(f"line {ln.index} and its perp meet the ovoid in "
                     f"{sorted(meets)} points", (ln.index, mp.index))
    counters["non_tangent_lines"] = swaps
    counters["ovoid_kind"] = theta.kind
    return _finish("segre", g, rec, counters, start)
