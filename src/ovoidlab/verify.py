"""Theorem-level verification suites producing structured pass/fail reports.

Every suite records failures as witnesses instead of raising, so a
corrupted input yields a failing report rather than a traceback.  Reports
are deterministic for identical inputs, elapsed_ms aside.

Every statement the fibration suites check is invariant under the group
that preserves the fibration, so each checks one member and one line per
orbit of it (fibration_orbits) and counts each with its orbit size.  A
report that fails there is discarded, and the suite runs again under the
trivial group, every member and every line: only the full sweep reports
a failure, and it reads no group.
"""

from __future__ import annotations

import time

from .errors import NoPolarity, NotASpread, OvoidlabError
from .fibration import (Fibration, SingerContext, Spread,
                        common_tangent_spread, common_tangents,
                        fibration_orbits, is_regular_spread, line_tangency,
                        t_orbit_fibration, trivial_orbits)
from .gf2code import (code_C, code_D, odd_meetings, orbit_sum,
                      radical_codim_check, t_module_counters)
from .ovoids import Ovoid, line_meets, tangent_lines
from .projspace import GeometryTables
from .symplectic import (SymplecticForm, isotropic_lines, member_polarity,
                         perp_planes, polar_lines, polarity_from_ovoid)

MAX_WITNESSES = 20

_Q2_NOTE = "q=2 is outside the paper's hypotheses (q = 2^n > 2); advisory only"


class VerificationReport:
    """One suite's report, filled while the suite runs: its counters and
    failure witnesses, capped at MAX_WITNESSES while the count of failures
    is not, timed from construction to finish()."""

    def __init__(self, theorem: str, g: GeometryTables):
        self.theorem, self.q = theorem, g.q
        self.counters: dict = {}
        self.failures: list = []
        self.failures_total = 0
        self.advisory = _Q2_NOTE if g.q == 2 else None
        self.passed, self.elapsed_ms = None, None
        self._start = time.monotonic()

    def fail(self, description: str, indices=()) -> None:
        self.failures_total += 1
        if len(self.failures) < MAX_WITNESSES:
            self.failures.append({"witness": description,
                                  "indices": list(indices)})

    def finish(self) -> "VerificationReport":
        self.counters["failures_total"] = self.failures_total
        self.passed = self.failures_total == 0
        self.elapsed_ms = int((time.monotonic() - self._start) * 1000)
        return self

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


def _reduced_or_full(theorem: str, check, f: Fibration, g: GeometryTables,
                     *args) -> VerificationReport:
    """check(report, f, g, orbits, *args) under the orbits of the
    fibration's group if that report passes, else under the trivial group.
    check returns None when a guard of its own declines the group.  Both
    reports are timed from the start."""
    reduced = VerificationReport(theorem, g)
    full = VerificationReport(theorem, g)
    orbits = fibration_orbits(f, g)
    if orbits.reduced:
        rec = check(reduced, f, g, orbits, *args)
        if rec is not None and rec.passed:
            return rec
    return check(full, f, g, trivial_orbits(f, g), *args)


def verify_proposition1(f: Fibration, g: GeometryTables) -> VerificationReport:
    """Common tangents form a regular spread; tangent complexes pairwise
    meet in it; every non-spread line has profile (1, q/2, q/2)."""
    return _reduced_or_full("proposition1", _proposition1, f, g)


def _proposition1(rec, f, g, orbits) -> VerificationReport:
    q = g.q
    common = common_tangents(f, g, orbits)
    rec.counters["spread"] = len(common)
    spread_set = set(common)
    want, profile = (1, q // 2, q // 2), line_tangency(f, g).profile
    bad = [(li, profile(li)) for li, _ in orbits.lines
           if li not in spread_set and profile(li) != want]
    if len(common) != q * q + 1:
        rec.fail(f"common tangent set has {len(common)} lines, "
                 f"expected {q * q + 1}")
    else:
        try:
            if not is_regular_spread(Spread(tuple(common)), g):
                rec.fail("common tangent spread fails regulus closure")
        except NotASpread:
            rec.fail("common tangent lines do not form a spread")

    # tangent complexes pairwise intersect exactly in the spread, as they
    # do unless some line outside it has another profile than `want`
    try:
        complexes = [set(tangent_lines(ov, g)) for ov in f.members] \
            if bad else []
        for i in range(len(complexes)):
            for j in range(i + 1, len(complexes)):
                meet = complexes[i] & complexes[j]
                if meet != spread_set:
                    rec.fail(f"tangent complexes {i} and {j} meet in "
                             f"{len(meet)} lines, expected the spread", (i, j))
    except OvoidlabError as exc:
        rec.fail(f"tangent complex computation failed: {exc}")

    for li, prof in bad:
        rec.fail(f"line {li} has profile {prof}, expected {want}", (li,))
    rec.counters["lines_checked"] = len(g.line_masks) - len(spread_set)
    rec.counters["expected_profile"] = list(want)
    return rec.finish()


def verify_lemma5(sc: SingerContext) -> VerificationReport:
    """T-orbit sum of every line is the all-one vector (spread lines) or
    the characteristic vector of the unique tangent T-orbit."""
    g = sc.geometry
    try:
        fib = t_orbit_fibration(sc)
    except OvoidlabError as exc:
        rec = VerificationReport("lemma5", g)
        rec.fail(f"T-orbit setup failed: {exc}")
        return rec.finish()
    return _reduced_or_full("lemma5", _lemma5, fib, g, sc)


def _lemma5(rec, fib, g, orbits, sc) -> VerificationReport:
    try:
        spread = set(common_tangent_spread(fib, g, orbits).lines)
    except OvoidlabError as exc:
        rec.fail(f"T-orbit setup failed: {exc}")
        return rec.finish()

    in_spread = not_in_spread = 0
    weight_hist: dict[int, int] = {}
    label = line_tangency(fib, g).label
    for li, size in orbits.lines:
        s = orbit_sum(g.line_row(li), sc)
        w = s.bit_count()
        weight_hist[w] = weight_hist.get(w, 0) + size
        if li in spread:
            in_spread += size
            if s != g.all_one:
                rec.fail(f"spread line {li} orbit sum is not all-one", (li,))
        else:
            not_in_spread += size
            lbl = label(li)
            if lbl is None:
                rec.fail(f"line {li} has no unique tangent orbit", (li,))
            elif s != fib.members[lbl].mask:
                rec.fail(f"line {li} orbit sum differs from its "
                         f"tangent orbit E_{lbl}", (li, lbl))
    rec.counters["lines_in_spread"] = in_spread
    rec.counters["lines_not_in_spread"] = not_in_spread
    rec.counters["weight_histogram"] = {str(k): v for k, v
                                        in sorted(weight_hist.items())}
    return rec.finish()


def verify_main_theorem(f: Fibration, g: GeometryTables,
                        theta0: int | None = None) -> VerificationReport:
    """For every dual grid of the W(q) defined by theta_0, the two lines
    are tangent to distinct members, both distinct from theta_0.

    theta0=None sweeps every member as the distinguished ovoid.  A
    fibration with no members, or a theta0 naming no member, fails.
    """
    return _reduced_or_full("main_theorem", _main_theorem, f, g, theta0)


def _main_theorem(rec, f, g, orbits, theta0) -> VerificationReport | None:
    n_members = len(f.members)
    if not n_members:
        rec.fail("the fibration has no members")
    choices = orbits.members if theta0 is None else ((theta0, 1),)
    label = line_tangency(f, g).label
    grids_checked = 0
    choices_done = 0
    for t0, weight in choices:
        if not 0 <= t0 < n_members:
            rec.fail(f"theta_0 = {t0} is not a member index (the "
                     f"fibration has {n_members} members)", (t0,))
            continue
        try:
            form = member_polarity(f, t0, g)
        except OvoidlabError as exc:
            rec.fail(f"polarity from member {t0} failed: {exc}", (t0,))
            continue
        choices_done += weight
        grids = orbits.grids(polar_lines(form, g))
        if grids is None:
            return None
        for m, mp, size in grids:
            grids_checked += weight * size
            j, k = label(m), label(mp)
            if j is None or k is None:
                rec.fail(f"dual grid ({m},{mp}) of W(theta_{t0}) "
                         "has a line without a unique tangent member",
                         (t0, m, mp))
            elif j == k or j == t0 or k == t0:
                rec.fail(f"dual grid ({m},{mp}) of W(theta_{t0}) "
                         f"has labels ({j},{k})", (t0, m, mp))
    rec.counters["theta0_choices"] = choices_done
    rec.counters["dual_grids_checked"] = grids_checked
    return rec.finish()


def verify_radical_and_corollary3(form: SymplecticForm, sc: SingerContext
                                  ) -> VerificationReport:
    """Theorem 1.4 and Corollary 3 as rank statements: the pairwise-sum
    span has codimension exactly 1 in D, no dual grid lies in it, D sits
    strictly inside C-perp, and the orbit sum of every dual grid is the
    sum of two distinct nonzero-labeled T-orbits.

    The form must be the polarity of the least T-orbit (label 0)."""
    g = sc.geometry
    try:
        fib = t_orbit_fibration(sc)
    except OvoidlabError as exc:
        rec = VerificationReport("radical_corollary3", g)
        rec.fail(f"T-orbit setup failed: {exc}")
        return rec.finish()
    return _reduced_or_full("radical_corollary3", _codes, fib, g, form, sc)


def _codes(rec, fib, g, orbits, form, sc) -> VerificationReport | None:
    # W(q)-lines: the polar map's fixed points; dual grids: its 2-cycles
    try:
        polar = polar_lines(form, g)
    except OvoidlabError as exc:  # a degenerate form has no polar map
        rec.fail(f"polar map of the form failed: {exc}")
        return rec.finish()
    n_grids = sum(m < mp for m, mp in enumerate(polar))
    rec.counters["lines_of_W"] = sum(m == mp for m, mp in enumerate(polar))
    rec.counters["dual_grids"] = n_grids

    # the T-module ranks when T provably maps both row sets onto
    # themselves, else one elimination of each code; the rows are swept
    # for D-in-C-perp unless the T-module proves it
    fast = t_module_counters(polar, orbits, sc)
    if fast is None or not fast[3]:
        C, D = code_C(form, g), code_D(form, g)
    dim_c, dim_d, dim_sum, perp_proved = fast or (
        C.rank, *radical_codim_check(D)[:2], False)
    codim = dim_d - dim_sum
    rec.counters.update(dim_C=dim_c, dim_C_perp=g.n_points - dim_c,
                        dim_D=dim_d, dim_pairwise_sum_span=dim_sum,
                        radical_codim=codim)
    if codim != 1:
        rec.fail(f"radical codimension is {codim}, expected 1")

    # no single dual grid lies in the pairwise-sum span S: D = S + <row_0>
    # and row_i = row_0 + (row_0 + row_i), so row_i lies in S exactly when
    # row_0 does, that is when the codimension is 0
    if codim == 0:
        for idx in range(n_grids if fast else len(D.rows)):
            rec.fail(f"dual grid row {idx} lies in the pairwise-sum span",
                     (idx,))

    # D subset C-perp, with strict containment
    for di, ci in () if perp_proved else odd_meetings(D, C):
        rec.fail(f"dual grid {di} meets W(q)-line {ci} oddly", (di, ci))
    if not dim_d < g.n_points - dim_c:
        rec.fail(f"dim D = {dim_d} is not strictly below "
                 f"dim C-perp = {g.n_points - dim_c}")

    # sigma of each dual grid is E_i + E_j, 0 < i != j
    grids = orbits.grids(polar)
    if grids is None:
        return None
    label = line_tangency(fib, g).label
    for m, mp, _ in grids:
        s = orbit_sum(g.line_row(m), sc) ^ orbit_sum(g.line_row(mp), sc)
        i, j = label(m), label(mp)
        if i is None or j is None or i == j or i == 0 or j == 0:
            rec.fail(f"dual grid ({m},{mp}) has orbit labels ({i},{j})",
                     (m, mp))
        elif s != fib.members[i].mask ^ fib.members[j].mask:
            rec.fail(f"sigma of dual grid ({m},{mp}) is not E_{i} + E_{j}",
                     (m, mp))
    return rec.finish()


def tangents_by_point(theta: Ovoid, tangents, g: GeometryTables) -> dict:
    """The lines of `tangents`, ascending, grouped by their one point on
    theta: the only set bit of the line mask's meet with theta's mask."""
    out: dict[int, list[int]] = {}
    for li in sorted(tangents):
        out.setdefault((g.line_masks[li] & theta.mask).bit_length() - 1,
                       []).append(li)
    return out


def verify_segre(theta: Ovoid, g: GeometryTables) -> VerificationReport:
    """The Segre polarity of an ovoid exists, its isotropic lines are the
    tangents, tangent planes match point perps, and perp swaps secant and
    external lines."""
    rec = VerificationReport("segre", g)
    try:
        tset = set(tangent_lines(theta, g))
    except OvoidlabError as exc:
        rec.fail(f"tangent sweep failed: {exc}")
        return rec.finish()
    rec.counters["tangent_lines"] = len(tset)
    try:
        form = polarity_from_ovoid(theta, g)
    except NoPolarity as exc:
        rec.fail(f"no symplectic polarity: {exc}")
        return rec.finish()

    iso = set(isotropic_lines(form, g))
    if iso != tset:
        rec.fail(f"isotropic lines ({len(iso)}) differ from tangent "
                 f"lines ({len(tset)})")

    # tangent planes: the q+1 tangents through x cover exactly x^perp
    perp = perp_planes(form, g)
    groups = tangents_by_point(theta, tset, g)
    for x in theta.pts:
        through = groups.get(x, [])
        if len(through) != g.q + 1:
            rec.fail(f"point {x} has {len(through)} tangents", (x,))
            continue
        union = 0
        for li in through:
            union |= g.line_masks[li]
        if union != g.planes[perp[x]].mask:
            rec.fail(f"tangents through {x} do not cover its perp plane",
                     (x,))

    # tangent/secant swap under perp for every non-tangent line
    meets = line_meets(theta.mask, g)
    for i, mp in enumerate(polar_lines(form, g)):
        pair = {meets[i], meets[mp]}
        if meets[i] != 1 and pair != {0, 2}:
            rec.fail(f"line {i} and its perp meet the ovoid in "
                     f"{sorted(pair)} points", (i, mp))
    rec.counters["non_tangent_lines"] = len(g.line_masks) - len(tset)
    rec.counters["ovoid_kind"] = theta.kind
    return rec.finish()
