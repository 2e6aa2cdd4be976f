"""Seeded self-verification suites behind the ``verify`` CLI subcommand.

Each suite returns a list of (check name, passed) pairs.  ``run_all``
assembles them into a deterministic report: identical seeds give identical
output, and results are sorted by suite and check name rather than by
completion order.
"""

import itertools
import math
import zlib

import numpy as np

from . import core, equilibria, integrate, invariant_sets, solutions

QUICK = "quick"
FULL = "full"


_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))


def root_match_error(got, want) -> float:
    """Largest distance |got[i] - want[perm[i]]| under the pairing of four
    roots that minimises the summed distance (exhaustive over 24 orders)."""
    cost = np.abs(np.subtract.outer(np.asarray(got), np.asarray(want)))
    paired = cost[np.arange(4), _PERMUTATIONS]
    return float(paired[np.argmin(paired.sum(axis=1))].max())


def _sample_points(rng, n, half_width=2.0):
    return rng.uniform(-half_width, half_width, size=(n, 5))


def structure_suite(rng, level):
    n = 100
    points = _sample_points(rng, n)
    checks = []

    ok = True
    for p in points:
        J = core.poisson_tensor(p)
        ok &= np.array_equal(J, -J.T)
    checks.append(("antisymmetry_exact", ok))

    norm2 = 1.0 + np.sum(points ** 2, axis=1)
    norm3 = 1.0 + np.sum(points ** 2, axis=1) ** 1.5
    ok = all(
        np.abs(core.poisson_tensor(p) @ core.grad_C(p)).max() < 1e-14 * s
        for p, s in zip(points, norm2)
    )
    checks.append(("casimir_in_kernel", ok))

    ok = all(
        np.abs(core.vector_field(p) - core.poisson_tensor(p) @ core.grad_H(p)).max()
        < 1e-14 * s
        for p, s in zip(points, norm3)
    )
    checks.append(("hamiltonian_poisson_form", ok))

    ok = all(
        abs(core.poisson_bracket(core.grad_H, core.grad_I, p)) < 1e-12 * s
        for p, s in zip(points, norm3)
    )
    checks.append(("bracket_H_I_zero", ok))

    ok = all(core.poisson_bracket(core.grad_H, core.grad_H, p) == 0.0 for p in points)
    checks.append(("bracket_self_zero", ok))

    ok = all(
        abs(core.grad_I(p) @ core.vector_field(p)) < 1e-13 * s
        and abs(core.grad_C(p) @ core.vector_field(p)) < 1e-13 * s
        for p, s in zip(points, norm3)
    )
    checks.append(("invariants_along_flow", ok))

    # Jacobi identity with analytic bracket gradients, for the named
    # observables and for random quadratic test functions
    def random_quadratic():
        A = rng.uniform(-1, 1, size=(5, 5))
        return core.Quadratic(A + A.T, rng.uniform(-1, 1, size=5))

    triples = [(core.H_QUADRATIC, core.I_QUADRATIC, core.C_QUADRATIC)]
    triples += [(random_quadratic(), random_quadratic(), random_quadratic())
                for _ in range(3)]
    ok = True
    for p, s2 in zip(points, norm2):
        scale = s2 ** 3
        for F, G, K in triples:
            ok &= abs(core.jacobi_defect(F, G, K, p)) < 1e-12 * scale
    checks.append(("jacobi_identity_sampled", ok))
    return checks


def equilibria_suite(rng, level):
    checks = []
    c_grid = (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0)
    alpha_grid = (0.1, 0.5, 1.0, 2.0)

    ok = True
    for c in c_grid:
        for a in alpha_grid:
            poly = equilibria.pencil_char_poly(c, a)
            for got, want in ((poly.c2, 2 * a ** 2 - 2 * c),
                              (poly.c0, (a ** 2 + c) ** 2)):
                ok &= abs(got - want) <= 1e-12 * (1 + abs(want))
            ok &= poly.c3 == 0.0 and poly.c1 == 0.0
    checks.append(("pencil_closed_form", ok))

    n = 100 if level == QUICK else 1000
    ok = True
    for _ in range(n):
        roots = _random_separated_roots(rng)
        coeffs = np.real(np.poly(roots))
        got = equilibria.quartic_roots(
            equilibria.QuarticPoly(*[float(x) for x in coeffs[1:]]))
        ok &= root_match_error(got, roots) < 1e-8
    checks.append(("quartic_root_reconstruction", ok))

    ok = True
    for c in c_grid:
        lin = equilibria.leaf_linearization([0, 0, 0, 0, c], c)
        comm = lin.matrix_H @ lin.matrix_I - lin.matrix_I @ lin.matrix_H
        ok &= np.abs(comm).max() < 1e-13
    checks.append(("leaf_flows_commute", ok))

    dense = tuple(s * 2.0 ** (k / 2.0) for k in range(-12, 7) for s in (1.0, -1.0))
    ok = True
    for c in c_grid:
        e = [0, 0, 0, 0, c]
        ok &= (equilibria.cartan_classify(e, c).kind
               == equilibria.cartan_classify(e, c, alpha_grid=dense).kind)
    checks.append(("classification_grid_refinement_stable", ok))

    ok = True
    for c in (0.25, 1.0, 4.0):
        res = equilibria.cartan_classify([0, 0, 0, 0, c], c)
        ok &= res.kind == equilibria.FOCUS_FOCUS and res.discriminant < 0
    for c in (-0.25, -1.0, -4.0):
        a = 0.5 * math.sqrt(-c) * 0.9
        roots = equilibria.quartic_roots(equilibria.pencil_char_poly(c, a))
        ok &= all(abs(r.real) < 1e-9 * (1 + abs(r)) for r in roots)
        ok &= equilibria.cartan_classify([0, 0, 0, 0, c], c).kind == equilibria.CENTER_CENTER
    checks.append(("discriminant_and_type_signs", ok))
    return checks


def _random_separated_roots(rng, min_sep=0.1):
    """Four roots of a real quartic (conjugation-closed), pairwise >= min_sep."""
    while True:
        shape = rng.integers(0, 3)  # number of complex-conjugate pairs
        roots = []
        for _ in range(shape):
            re, im = rng.uniform(-3, 3), rng.uniform(min_sep, 3)
            roots += [complex(re, im), complex(re, -im)]
        while len(roots) < 4:
            roots.append(complex(rng.uniform(-3, 3), 0.0))
        arr = np.array(roots)
        d = np.abs(arr[:, None] - arr[None, :]) + np.eye(4)
        if d.min() >= min_sep:
            return arr


def integrate_suite(rng, level):
    checks = []
    p0 = np.array([1.0, 1.0, 0.0, 0.0, 1.0])

    ref = integrate.integrate(p0, integrate.IntegratorConfig(
        method="rk45", t_end=1.0, abs_tol=1e-13, rel_tol=1e-13,
        sample_stride=10 ** 9)).states[-1]
    errs = []
    for dt in (1e-2, 5e-3):
        end = integrate.integrate(p0, integrate.IntegratorConfig(
            method="rk4", t_end=1.0, dt=dt, sample_stride=10 ** 9)).states[-1]
        errs.append(np.linalg.norm(end - ref))
    factor = errs[0] / errs[1]
    checks.append(("rk4_order_factor", 12.0 <= factor <= 20.0))

    t_rev = 10.0
    cfg = integrate.IntegratorConfig(method="rk45", t_end=t_rev,
                                     abs_tol=1e-12, rel_tol=1e-12,
                                     sample_stride=10 ** 9)
    fwd = integrate.integrate(p0, cfg).states[-1]
    back = integrate.integrate(fwd, cfg,
                               field=lambda p: -core.vector_field(p)).states[-1]
    checks.append(("time_reversal", bool(np.linalg.norm(back - p0) < 1e-8)))

    t_end = 10.0 if level == QUICK else 100.0
    q0 = np.array([1.0, 1.0, 0.5, -0.5, 0.2])
    traj = integrate.integrate(q0, integrate.IntegratorConfig(
        method="rk4", t_end=t_end, dt=1e-3, sample_stride=100))
    rep = integrate.drift_report(traj)
    drift_ok = max(rep.max_abs_dH, rep.max_abs_dI, rep.max_abs_dC) < 1e-7
    checks.append(("rk4_conserved_drift", drift_ok))
    checks.append(("samples_all_finite", bool(np.isfinite(traj.states).all())))
    return checks


def solutions_suite(rng, level):
    checks = []
    ts = np.linspace(-10, 10, 200 if level == QUICK else 1000)

    resid_ok = level_ok = asym_ok = theta_ok = True
    for c in (0.5, 1.0, 2.0):
        for theta0 in (0.0, math.pi / 3, math.pi / 2):
            for sign in (1, -1):
                par = solutions.HomoclinicParams(c=c, theta0=theta0, sign=sign)
                orbit = solutions.homoclinic(par, ts)
                deriv = solutions.homoclinic_derivative(par, ts)
                field = core.vector_field(orbit)
                tol = 1e-12 * (1 + c * c)
                resid_ok &= float(np.abs(deriv - field).max()) < tol
                cons = np.column_stack(core.conserved(orbit))
                level_ok &= float(np.abs(cons - [c * c / 2, 0.0, c]).max()) < tol
                ec = np.array([0, 0, 0, 0, c])
                # sech <= 2 exp(-|arg|) bounds the x-parts by 4 sqrt(c) and
                # the y-parts by 4c times exp(-sqrt(c) T)
                for T in (1.0, 3.0, 6.0):
                    gap = np.linalg.norm(solutions.homoclinic(par, -T) - ec)
                    asym_ok &= gap <= 5 * math.sqrt(c + c * c) * math.exp(-math.sqrt(c) * T)
                for t in (-2.0, 0.5, 4.0):
                    pol = solutions.state_to_polar(solutions.homoclinic(par, t), c)
                    target = (theta0 if sign == 1 else theta0 + math.pi) % solutions.TWO_PI
                    dth = abs((pol.theta - target + math.pi) % solutions.TWO_PI - math.pi)
                    theta_ok &= dth < 1e-9
    checks.append(("homoclinic_solves_system", resid_ok))
    checks.append(("homoclinic_level_set", level_ok))
    checks.append(("homoclinic_biasymptotic", asym_ok))
    checks.append(("homoclinic_theta_frozen", theta_ok))

    # chart pushforward: the polar field maps to the full field through
    # the Jacobian of the chart
    push_ok = True
    for _ in range(20):
        q = solutions.PolarState(r1=rng.uniform(0.2, 2.0),
                                 theta=rng.uniform(0, solutions.TWO_PI),
                                 y1=rng.uniform(-2, 2), y2=rng.uniform(-2, 2),
                                 c=rng.uniform(-2, 2))
        dr, dth, dy1, dy2 = solutions.reduced_polar_field(q)
        ct, st = math.cos(q.theta), math.sin(q.theta)
        pushed = np.array([
            dr * ct - q.r1 * st * dth,
            dy1,
            dr * st + q.r1 * ct * dth,
            dy2,
            -q.r1 * dr,
        ])
        full = core.vector_field(solutions.polar_to_state(q))
        push_ok &= float(np.abs(pushed - full).max()) < 1e-13 * (1 + np.abs(full).max())
    checks.append(("polar_chart_pushforward", push_ok))

    per_ok = rel_ok = punct_ok = True
    for _ in range(10):
        par = solutions.PeriodicParams(
            x1_0=rng.uniform(-2, 2),
            y1_0=rng.choice([-1, 1]) * rng.uniform(0.1, 2),
            x2_0=rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        w = par.omega
        f1 = par.x1_0 ** 2 + par.x2_0 ** 2
        grid = np.linspace(0.0, par.period, 200)
        orbit = solutions.periodic_solution(par, grid)
        deriv = solutions.periodic_derivative(par, grid)
        field = core.vector_field(orbit)
        tol = 1e-12 * (1 + w * w) * (1 + f1)
        per_ok &= float(np.abs(deriv - field).max()) < tol
        rel_ok &= float(np.abs(orbit[:, 1] - w * orbit[:, 2]).max()) < tol
        rel_ok &= float(np.abs(orbit[:, 3] + w * orbit[:, 0]).max()) < tol
        rel_ok &= float(np.abs(orbit[:, 4] + w * w).max()) < tol
        sched = solutions.puncture_times(par)
        for k in (0, 1, 5):
            pt = solutions.periodic_solution(par, sched.t_k(k))
            punct_ok &= abs(pt[2]) < 1e-9 * (1 + f1) and abs(pt[1]) < 1e-9 * (1 + abs(w) * f1)
            punct_ok &= abs(pt[0]) > 1e-6
    checks.append(("periodic_solves_system", per_ok))
    checks.append(("periodic_linear_relations", rel_ok))
    checks.append(("punctures_leave_chart", punct_ok))
    return checks


def invariant_suite(rng, level):
    checks = []
    n = 100 if level == QUICK else 1000

    generic_ok = True
    count = 0
    while count < n:
        p = rng.uniform(-2, 2, size=5)
        if invariant_sets.m1_defect(p) < 1e-3 or invariant_sets.m2_defect(p) < 1e-3:
            continue
        sv = invariant_sets.rank_F(p)
        if sv.singular_values[-1] < 1e-3:  # near a rank-degenerate locus
            continue
        count += 1
        generic_ok &= sv.rank == 3
    checks.append(("rank3_generic", generic_ok))

    emb_ok = True
    for _ in range(n // 2):
        q1 = invariant_sets.M1Point(rng.uniform(-2, 2),
                                    rng.choice([-1, 1]) * rng.uniform(0.1, 2),
                                    rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        emb_ok &= invariant_sets.rank_F(invariant_sets.m1_embed(q1)).rank == 2
        q2 = invariant_sets.M2Point(rng.choice([-1, 1]) * rng.uniform(0.1, 2),
                                    rng.uniform(-2, 2))
        emb_ok &= invariant_sets.rank_F(invariant_sets.m2_embed(q2)).rank == 2
    checks.append(("rank2_on_pieces", emb_ok))

    f_ok = ident_ok = True
    for _ in range(10):
        par = solutions.PeriodicParams(rng.uniform(-2, 2),
                                       rng.choice([-1, 1]) * rng.uniform(0.1, 2),
                                       rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        grid = np.linspace(0.0, par.period, 150)
        pts = solutions.m1_solution(par, grid)
        keep = np.abs(pts[:, 2]) > 0.1
        f1_0 = par.x1_0 ** 2 + par.x2_0 ** 2
        f2_0 = par.omega
        f1 = pts[:, 0] ** 2 + pts[:, 2] ** 2
        f2 = pts[keep, 1] / pts[keep, 2]
        f_ok &= float(np.abs(f1 - f1_0).max()) < 1e-12 * (1 + f1_0)
        f_ok &= float(np.abs(f2 - f2_0).max()) < 1e-11 * (1 + abs(f2_0))
        q = invariant_sets.M1Point(par.x1_0, par.y1_0, par.x2_0)
        i_val = core.conserved(invariant_sets.m1_embed(q)).I
        fa, fb = invariant_sets.m1_conserved(q)
        ident_ok &= abs(i_val - fa * fb) < 1e-13 * (1 + abs(fa * fb))
    checks.append(("m1_conserved_pair", f_ok))
    checks.append(("invariant_I_factorizes", ident_ok))

    t_end = 10.0 if level == QUICK else 20.0
    rep = invariant_sets.invariance_probe(invariant_sets.M1Point(0.0, 1.0, 1.0), t_end)
    expected = solutions.puncture_times(
        solutions.PeriodicParams(0.0, 1.0, 1.0)).count_in(t_end)
    checks.append(("union_is_invariant", rep.max_distance_to_union < 1e-6))
    checks.append(("pieces_not_invariant", rep.puncture_count >= 1
                   and rep.puncture_count == expected))
    return checks


SUITES = {
    "core": structure_suite,
    "equilibria": equilibria_suite,
    "integrate": integrate_suite,
    "solutions": solutions_suite,
    "invariant_sets": invariant_suite,
}


def run_all(seed: int, level: str = QUICK) -> dict:
    """Run every suite with one seeded generator; deterministic report."""
    if level not in (QUICK, FULL):
        raise ValueError(f"unknown level {level!r}")
    results = []
    for suite_name in sorted(SUITES):
        rng = np.random.default_rng([seed, zlib.crc32(suite_name.encode())])
        for name, passed in SUITES[suite_name](rng, level):
            results.append({"suite": suite_name, "name": name, "passed": bool(passed)})
    results.sort(key=lambda r: (r["suite"], r["name"]))
    return {
        "seed": seed,
        "level": level,
        "all_passed": all(r["passed"] for r in results),
        "results": results,
    }
