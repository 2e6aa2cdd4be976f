"""Seeded self-verification suites behind the ``verify`` CLI subcommand.

Each sampled check of a paper claim is a function named after its report
entry: it takes its sample (points, parameter sets, finished runs, or an
rng and a count) and returns a bool, and the suites and the tests all call
it.  Each suite returns a list of (check name, passed) pairs.  ``run_all``
assembles them into a deterministic report: identical seeds give identical
output, and results are sorted by suite and check name rather than by
completion order.  The samples are drawn from a ``random.Random`` per
suite, seeded with the string ``"<suite>:<seed>"``, which gives the same
stream on every Python version; a full run draws about 15 000
numbers, too few for NumPy's generators to pay for ``numpy.random``.
"""

import dataclasses
import itertools
import math
import random

import numpy as np

from . import core, domain, equilibria, integrate, invariant_sets, solutions

QUICK = "quick"
FULL = "full"

C_GRID = (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0)
HOMOCLINIC_PARAMS = tuple(
    solutions.HomoclinicParams(c=c, theta0=theta0, sign=sign)
    for c in (0.5, 1.0, 2.0) for theta0 in (0.0, math.pi / 3, math.pi / 2)
    for sign in (1, -1))


_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))


def root_match_error(got, want) -> float:
    """Largest distance |got[i] - want[perm[i]]| under the pairing of four
    roots that minimises the summed distance (exhaustive over 24 orders)."""
    cost = np.abs(np.subtract.outer(np.asarray(got), np.asarray(want)))
    paired = cost[np.arange(4), _PERMUTATIONS]
    return float(paired[np.argmin(paired.sum(axis=1))].max())


def _signed(rng):
    """A value in +-[0.1, 2): bounded away from zero, either sign."""
    return rng.choice([-1, 1]) * rng.uniform(0.1, 2)


def random_periodic_params(rng, n):
    """n members R(x1, x2, y1 / x2) of the periodic family with y1, x2 away from zero."""
    return [invariant_sets.RankTwoPoint.from_m1(rng.uniform(-2, 2), _signed(rng), _signed(rng))
            for _ in range(n)]


def _random_separated_roots(rng, min_sep=0.1):
    """Four roots of a real quartic (conjugation-closed), pairwise >= min_sep."""
    while True:
        shape = rng.randrange(3)  # number of complex-conjugate pairs
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


def structure_points(rng):
    """The 1 024 points of {-1, 0, 1, 2}^5 and 100 seeded points of the 1/8
    lattice of [-2, 2]^5, where the structure checks compute exactly.  J is
    affine, so each of their residuals has degree at most 3 in each coordinate
    and vanishes everywhere if it vanishes on the grid; an edit of higher
    degree may vanish there, but a nonzero edit of total degree D vanishes at
    a lattice point with probability at most D/33 (Schwartz-Zippel)."""
    grid = list(itertools.product((-1.0, 0.0, 1.0, 2.0), repeat=5))
    lattice = [[rng.randint(-16, 16) / 8 for _ in range(5)] for _ in range(100)]
    return np.array(grid + lattice)


def antisymmetry_exact(points) -> bool:
    J = core.poisson_tensor(points)
    return np.array_equal(J, -np.swapaxes(J, -1, -2))


def casimir_in_kernel(points) -> bool:
    return not (core.poisson_tensor(points) @ core.grad_C(points)[..., None]).any()


def hamiltonian_poisson_form(points) -> bool:
    hamiltonian = core.poisson_tensor(points) @ core.grad_H(points)[..., None]
    return np.array_equal(core.vector_field(points), hamiltonian[..., 0])


def bracket_H_I_zero(points) -> bool:
    return not core.poisson_bracket(core.grad_H, core.grad_I, points).any()


def bracket_self_zero(points) -> bool:
    return not core.poisson_bracket(core.grad_H, core.grad_H, points).any()


def invariants_along_flow(points) -> bool:
    field = core.vector_field(points)
    return not any(np.sum(grad(points) * field, axis=-1).any()
                   for grad in (core.grad_I, core.grad_C))


def jacobi_identity_sampled(points) -> bool:
    """The cyclic sum on the coordinate functions is exactly zero."""
    return not core.jacobi_defect(points).any()


STRUCTURE_CHECKS = (antisymmetry_exact, casimir_in_kernel, hamiltonian_poisson_form,
                    bracket_H_I_zero, bracket_self_zero, invariants_along_flow,
                    jacobi_identity_sampled)


def structure_suite(rng, level):
    points = structure_points(rng)
    return [(check.__name__, check(points)) for check in STRUCTURE_CHECKS]


def pencil_closed_form(c_grid, alpha_grid) -> bool:
    """Pencil polynomial t^4 + (2a^2 - 2c) t^2 + (a^2 + c)^2, bit for bit on
    the grid.  Its coefficients have degree at most 4 in c and in a, so five
    or more values of each, dyadic so that the float recursion is exact,
    prove it."""
    return all(equilibria.pencil_char_poly(c, a)
               == equilibria.QuarticPoly(0.0, 2 * a ** 2 - 2 * c, 0.0, (a ** 2 + c) ** 2)
               for c, a in itertools.product(c_grid, alpha_grid))


def quartic_root_reconstruction(rng, n) -> bool:
    """Roots of np.poly of n random separated root sets come back."""
    ok = True
    for _ in range(n):
        roots = _random_separated_roots(rng)
        coeffs = np.real(np.poly(roots))
        got = equilibria.quartic_roots(
            equilibria.QuarticPoly(*[float(x) for x in coeffs[1:]]))
        ok &= root_match_error(got, roots) < 1e-8
    return bool(ok)


def leaf_flows_commute(c_grid) -> bool:
    """matrix_H and matrix_I commute exactly: their products have one
    nonzero term per entry."""
    def commutator(c):
        lin = equilibria.leaf_linearization(c)
        return lin.matrix_H @ lin.matrix_I - lin.matrix_I @ lin.matrix_H
    return not any(commutator(c).any() for c in c_grid)


def classified_spectrum_matches_pencil(c_grid) -> bool:
    """The classifier's closed-form roots are the eigenvalues of the pencil
    member it names, matrix_H + alpha matrix_I."""
    ok = True
    for c in c_grid:
        res = equilibria.cartan_classify([0, 0, 0, 0, c], c)
        lin = equilibria.leaf_linearization(c)
        pencil = np.linalg.eigvals(lin.matrix_H + res.alpha * lin.matrix_I)
        ok &= root_match_error(res.roots, pencil) < 1e-9 * (1 + abs(c))
    return bool(ok)


def discriminant_and_type_signs(c_grid) -> bool:
    """Focus-focus with a negative discriminant for c > 0; for c < 0 a pencil
    member with purely imaginary roots, and center-center."""
    ok = True
    for c in c_grid:
        res = equilibria.cartan_classify([0, 0, 0, 0, c], c)
        if c > 0:
            ok &= res.kind == equilibria.FOCUS_FOCUS and res.discriminant < 0
        else:
            lin = equilibria.leaf_linearization(c)
            roots = np.linalg.eigvals(lin.matrix_H + 0.45 * math.sqrt(-c) * lin.matrix_I)
            ok &= all(abs(r.real) < 1e-9 * (1 + abs(r)) for r in roots)
            ok &= res.kind == equilibria.CENTER_CENTER
    return bool(ok)


def leaf_linearization_is_jacobian(c_grid) -> bool:
    """matrix_H and matrix_I are, to the bit, the Jacobians at the chart origin
    of the leaf flows J grad H and J grad I in the chart z = c - (x1^2 + x2^2)/2:
    cubic flows, whose derivative the five-point stencil (8 (f(e) - f(-e)) -
    (f(2e) - f(-2e))) / 12 at step 1 gives exactly, in dyadic floats on the grid."""
    def flow(grad, u, c):
        p = np.append(u, c - 0.5 * (u[0] ** 2 + u[2] ** 2))
        return (core.poisson_tensor(p) @ grad(p))[:4]

    ok = True
    for c in c_grid:
        lin = equilibria.leaf_linearization(c)
        for mat, grad in ((lin.matrix_H, core.grad_H), (lin.matrix_I, core.grad_I)):
            d1, d2 = (np.column_stack([flow(grad, h * e, c) - flow(grad, -h * e, c)
                                       for e in np.eye(4)]) for h in (1.0, 2.0))
            ok &= np.array_equal(mat, (8 * d1 - d2) / 12)
    return bool(ok)


def equilibrium_families_fixed(axis_values, ring_pairs) -> bool:
    """The field vanishes at the origin, on the axis points (0,0,0,0,M) and
    on the ring points (M,0,N,0,0) = R(M, N, 0).  grad I vanishes on the axis
    (K0); on the ring the leaf-tangent vector v = (-N, N, M, -M, 0) witnesses
    grad I . v = M^2 + N^2 != 0 (K1), with == on dyadic M and N."""
    axis = [np.array([0.0, 0.0, 0.0, 0.0, m]) for m in (0.0, *axis_values)]
    ok = not core.vector_field(axis).any() and not core.grad_I(axis).any()
    for m, n in ring_pairs:
        p, v = invariant_sets.RankTwoPoint(m, n, 0.0).state, np.array([-n, n, m, -m, 0.0])
        ok &= not core.vector_field(p).any() and core.grad_C(p) @ v == 0.0
        ok &= core.grad_I(p) @ v == m * m + n * n
    return bool(ok)


def origin_sublevel_bound(eps_values) -> bool:
    """Points of each sublevel set max(|H|, |I|, |C|) <= eps lie in the ball
    of radius R(eps) = ``equilibria.sublevel_norm_bound(eps)``, and the point
    (sqrt(2 eps + 2 sqrt(2 eps)), 0, 0, 0, -sqrt(2 eps)) of the set reaches
    it.  The other points form a fixed grid: (y1, y2, z) in the ball
    H <= eps, (x1, x2) parallel to (y1, y2) so that I = 0, and
    x1^2 + x2^2 = 2 (t eps - z) >= 0 so that C = t eps, t in {-1, 0, 1}."""
    ok = True
    for eps in eps_values:
        w, bound = math.sqrt(2 * eps), equilibria.sublevel_norm_bound(eps)
        r, a, b, t = (g.ravel() for g in np.meshgrid(
            (0.5 * w, w), np.linspace(0, math.pi, 9), np.linspace(0, 6, 8), (-1, 0, 1)))
        y, z = r * np.sin(a), r * np.cos(a)
        s2 = 2 * (t * eps - z)
        s = np.sqrt(np.maximum(s2, 0.0))
        pts = np.column_stack([s * np.cos(b), y * np.cos(b), s * np.sin(b), y * np.sin(b), z])
        pts = np.vstack([pts[s2 >= 0], [math.sqrt(2 * eps + 2 * w), 0, 0, 0, -w]])
        level = np.abs(np.column_stack(core.conserved(pts))).max(axis=1)
        norms = np.linalg.norm(pts, axis=1)
        ok &= level.max() <= eps * (1 + 1e-12) and norms.max() <= bound * (1 + 1e-12)
        ok &= abs(norms[-1] - bound) <= 1e-12 * bound
    return bool(ok)


def equilibria_suite(rng, level):
    return [
        ("pencil_closed_form", pencil_closed_form(C_GRID, (-1.5, 0.0, 0.5, 1.0, 2.0))),
        ("quartic_root_reconstruction",
         quartic_root_reconstruction(rng, 100 if level == QUICK else 1000)),
        ("leaf_flows_commute", leaf_flows_commute(C_GRID)),
        ("classified_spectrum_matches_pencil", classified_spectrum_matches_pencil(C_GRID)),
        ("discriminant_and_type_signs", discriminant_and_type_signs(C_GRID)),
        ("leaf_linearization_is_jacobian", leaf_linearization_is_jacobian(C_GRID)),
        ("equilibrium_families_fixed",
         equilibrium_families_fixed(C_GRID, ((1.0, 2.0), (-0.5, 0.0), (0.0, 3.0)))),
        ("origin_sublevel_bound", origin_sublevel_bound(equilibria.CERTIFICATE_EPS)),
    ]


def _end_state(p0, **cfg):
    return integrate.integrate(p0, integrate.IntegratorConfig(
        sample_stride=10 ** 9, **cfg)).states[-1]


def rk4_order_factor() -> bool:
    """Halving the RK4 step from 1e-2 divides the error at t = 1 by about 16."""
    p0 = [1.0, 1.0, 0.0, 0.0, 1.0]
    ref = _end_state(p0, method="rk45", t_end=1.0, abs_tol=1e-13, rel_tol=1e-13)
    errs = [np.linalg.norm(_end_state(p0, method="rk4", t_end=1.0, dt=dt) - ref)
            for dt in (1e-2, 5e-3)]
    return bool(12.0 <= errs[0] / errs[1] <= 20.0)


def dp_local_order() -> bool:
    """One Dormand-Prince step from the exact homoclinic (c = 1, theta0 = 0.7,
    t0 = -1), by the kernel that an rk45 run of the built-in field steps:
    halving h from 0.1 divides the error of the fifth-order state by about
    2^6 and the embedded estimate |y5 - y4| by about 2^5."""
    par = solutions.HomoclinicParams(c=1.0, theta0=0.7)
    p0 = solutions.homoclinic(par, -1.0).tolist()
    step = integrate._kernels(None)[1]
    errs, ests = [], []
    for h in (0.1, 0.05):
        y5, y4 = step(*p0, h)
        errs.append(np.linalg.norm(np.subtract(y5, solutions.homoclinic(par, -1.0 + h))))
        ests.append(np.linalg.norm(np.subtract(y5, y4)))
    return bool(48.0 <= errs[0] / errs[1] <= 80.0 and 24.0 <= ests[0] / ests[1] <= 40.0)


def time_reversal() -> bool:
    """RK45 to t = 10, reflected by the reversing involution
    R = diag(1, -1, 1, -1, 1), run to t = 10 again and reflected back
    returns to the start: f(R p) = -R f(p), so R phi_T(R phi_T(p)) = p."""
    p0 = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
    r = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    cfg = dict(method="rk45", t_end=10.0, abs_tol=1e-12, rel_tol=1e-12)
    back = r * _end_state(r * _end_state(p0, **cfg), **cfg)
    return bool(np.linalg.norm(back - p0) < 1e-8)


def rk45_step_count() -> bool:
    """The default rk45 run (tolerances 1e-10) from (1, 1, 0.5, -0.5, 0.2)
    to t = 1 accepts at most 50 steps; it takes 35.  A step control that
    grows the step on a large error (err ** 0.2 for err ** -0.2) takes about
    500 steps that every other check accepts."""
    traj = integrate.integrate([1.0, 1.0, 0.5, -0.5, 0.2],
                               integrate.IntegratorConfig(method="rk45", t_end=1.0))
    return len(traj) - 1 <= 50


def rk4_runs(starts, t_end):
    """Fixed-step RK4 runs (dt 1e-3, every 100th step recorded), one per start;
    the sample of ``rk4_conserved_drift``."""
    return [integrate.integrate(p0, integrate.IntegratorConfig(
        method="rk4", t_end=t_end, dt=1e-3, sample_stride=100)) for p0 in starts]


def rk4_conserved_drift(runs) -> bool:
    return all(max(dataclasses.astuple(integrate.drift_report(traj))) < 1e-7
               for traj in runs)


def integrate_suite(rng, level):
    runs = rk4_runs([[1.0, 1.0, 0.5, -0.5, 0.2]], 10.0 if level == QUICK else 100.0)
    return [
        ("rk4_order_factor", rk4_order_factor()),
        ("dp_local_order", dp_local_order()),
        ("time_reversal", time_reversal()),
        ("rk4_conserved_drift", rk4_conserved_drift(runs)),
        ("rk45_step_count", rk45_step_count()),
    ]


def _within_bounds(closed_form, t):
    """Each error of a ``solutions`` closed-form tuple below its bound, over the times t."""
    orbit, derivative, level, tol, level_tol = closed_form
    resid, dev = solutions.orbit_errors(orbit, derivative, level, t)
    return resid < tol, dev < level_tol


def homoclinic_solves_system(params, ts) -> bool:
    return all(_within_bounds(solutions.homoclinic_orbit(par), ts)[0] for par in params)


def homoclinic_level_set(params, ts) -> bool:
    """(H, I, C) = (c^2/2, 0, c) along the sampled orbit."""
    return all(_within_bounds(solutions.homoclinic_orbit(par), ts)[1] for par in params)


def homoclinic_biasymptotic(params) -> bool:
    # sech <= 2 exp(-|arg|) bounds the x-parts by 4 sqrt(c) and the y-parts
    # by 4c times exp(-sqrt(c) T)
    ok = True
    for par in params:
        c = par.c
        ec = np.array([0, 0, 0, 0, c])
        for T in (1.0, 3.0, 6.0):
            gap = np.linalg.norm(solutions.homoclinic(par, -T) - ec)
            ok &= gap <= 5 * math.sqrt(c + c * c) * math.exp(-math.sqrt(c) * T)
    return bool(ok)


def homoclinic_theta_frozen(params) -> bool:
    """The angle atan2(x2, x1) stays at theta0, or theta0 + pi for sign -1."""
    ok = True
    for par in params:
        target = par.theta0 if par.sign == 1 else par.theta0 + math.pi
        for t in (-2.0, 0.5, 4.0):
            x1, _, x2, _, _ = solutions.homoclinic(par, t)
            ok &= abs((math.atan2(x2, x1) - target + math.pi) % math.tau - math.pi) < 1e-9
    return bool(ok)


def radial_cubic_identity(points) -> bool:
    """s = x1^2 + x2^2 obeys s'^2 = P(s), s'' = P'(s)/2 and s theta' = -I exactly,
    with P = ``solutions.radial_cubic`` at each point's (H, I, C) and the field's
    derivatives.  Each residual has degree <= 6 in each coordinate, so it vanishes
    everywhere if it does on {-3, ..., 3}^5, where every float is exact."""
    x1, _, x2, _, _ = np.moveaxis(points, -1, 0)
    dx1, dy1, dx2, dy2, _ = np.moveaxis(core.vector_field(points), -1, 0)
    H, I, C = core.conserved(points)
    s = x1 * x1 + x2 * x2
    ds = 2 * (x1 * dx1 + x2 * dx2)
    dds = 2 * (dx1 * dx1 + dx2 * dx2 + x1 * dy1 + x2 * dy2)
    half_dP = 4 * H - 2 * C * C + 4 * C * s - 1.5 * s * s
    return not ((ds * ds - solutions.radial_cubic(s, H, I, C)).any()
                or (dds - half_dP).any() or (x1 * dx2 - x2 * dx1 + I).any())


def periodic_solves_system(params, n_grid) -> bool:
    return all(_within_bounds(solutions.periodic_orbit(par),
                             np.linspace(0.0, par.period, n_grid))[0] for par in params)


def periodic_linear_relations(params, n_grid) -> bool:
    """y1 = w x2, y2 = -w x1 and z = -w^2 along each sampled orbit."""
    ok = True
    for par in params:
        w, tol = par.w, solutions.periodic_orbit(par)[3]
        orbit = solutions.periodic_solution(par, np.linspace(0.0, par.period, n_grid))
        ok &= float(np.abs(orbit[:, 1] - w * orbit[:, 2]).max()) < tol
        ok &= float(np.abs(orbit[:, 3] + w * orbit[:, 0]).max()) < tol
        ok &= float(np.abs(orbit[:, 4] + w * w).max()) < tol
    return bool(ok)


def punctures_leave_chart(params) -> bool:
    """At the predicted puncture times x2 = y1 = 0 while x1 stays nonzero."""
    ok = True
    for par in params:
        w, f1 = par.w, par.x1 ** 2 + par.x2 ** 2
        for k in (0, 1, 5):
            pt = solutions.periodic_solution(par, par.puncture_time(k))
            ok &= abs(pt[2]) < 1e-9 * (1 + f1) and abs(pt[1]) < 1e-9 * (1 + abs(w) * f1)
            ok &= abs(pt[0]) > 1e-6
    return bool(ok)


def solutions_suite(rng, level):
    ts = np.linspace(-10, 10, 200 if level == QUICK else 1000)
    rest = np.indices((7,) * 4).reshape(4, -1).T - 3.0
    checks = [
        ("homoclinic_solves_system", homoclinic_solves_system(HOMOCLINIC_PARAMS, ts)),
        ("homoclinic_level_set", homoclinic_level_set(HOMOCLINIC_PARAMS, ts)),
        ("homoclinic_biasymptotic", homoclinic_biasymptotic(HOMOCLINIC_PARAMS)),
        ("homoclinic_theta_frozen", homoclinic_theta_frozen(HOMOCLINIC_PARAMS)),
        # {-3, ..., 3}^5 one x1 value at a time: a peak of 2 401 points, not 16 807
        ("radial_cubic_identity", all(radial_cubic_identity(np.insert(rest, 0, x1, axis=1))
                                      for x1 in range(-3, 4))),
    ]
    params = random_periodic_params(rng, 10)
    return checks + [
        ("periodic_solves_system", periodic_solves_system(params, 200)),
        ("periodic_linear_relations", periodic_linear_relations(params, 200)),
        ("punctures_leave_chart", punctures_leave_chart(params)),
    ]


def rank3_generic(rng, n) -> bool:
    """Rank 3 at n random points away from the rank-2 set (``rank_two_defect``
    at least 1e-3) and from rank-degenerate loci; False when 20 n draws leave
    fewer.  Batches of at most the number missing draw as one at a time."""
    kept, drawn, ok = 0, 0, True
    while kept < n and drawn < 20 * n:
        p = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(min(n - kept, 20 * n - drawn))]
        drawn += len(p)
        p = np.reshape([q for q in p if invariant_sets.rank_two_defect(q) >= 1e-3], (-1, 5))
        rep = invariant_sets.rank_F(p)
        ranks = rep.rank[rep.singular_values[:, -1] >= 1e-3]  # off rank-degenerate loci
        kept, ok = kept + len(ranks), ok and bool((ranks == 3).all())
    return kept == n and ok


def rank2_on_pieces(points) -> bool:
    """Rank 2 at the state of each chart point."""
    return bool((invariant_sets.rank_F(np.reshape([q.state for q in points], (-1, 5))).rank
                 == 2).all())


def singular_values_match_svd(points) -> bool:
    """``rank_F``'s singular values at states (..., 5) are LAPACK's of the
    Jacobian with its rows scaled to unit length, within 1e-14 of the largest."""
    jac = invariant_sets.jacobian_F(points)
    big = np.abs(jac).max(axis=-1, keepdims=True)
    jac = jac / np.where(big > 0, big, 1.0)
    norm = np.linalg.norm(jac, axis=-1, keepdims=True)
    want = np.linalg.svd(jac / np.where(norm > 0, norm, 1.0), compute_uv=False)
    got = invariant_sets.rank_F(points).singular_values
    return bool((np.abs(got - want) <= 1e-14 * want[..., :1]).all())


def chart_grid():
    """The chart points R(x1, x2, w) of {-3, ..., 3}^3 off x1 = x2 = 0, where
    the identities below are exact.  Of degree <= 4 in w and <= 2 in x1, x2, a
    residual that vanishes there does so for each x1 != 0 on it, so everywhere."""
    return [invariant_sets.RankTwoPoint(x1, x2, w)
            for x1, x2, w in itertools.product(range(-3, 4), repeat=3) if x1 or x2]


def rank2_multiplier_identity(points) -> bool:
    """dH - w dI + w^2 dC = 0 at each chart point: R is where F drops rank."""
    return not any(h - q.w * i + q.w * q.w * c for q in points
                   for h, i, c in zip(*domain.gradient_components(*q.state)))


def rank2_field_is_rotation(points) -> bool:
    """The field at each chart point is w K p, K p = (x2, y2, -x1, -y1, 0) the
    rotation that I generates: it turns (x1, x2) at rate w with s and w
    constant, so R is invariant and conserves the paper's pair (s, y1/x2 = w)."""
    return all(domain.field_components(x1, y1, x2, y2, z)
               == tuple(w * v for v in (x2, y2, -x1, -y1, 0.0))
               for w, (x1, y1, x2, y2, z) in ((q.w, q.state) for q in points))


def invariant_I_factorizes(points) -> bool:
    """I = w s, 2H = w^2 s + w^4 and 2C = s - 2 w^2 at each chart point."""
    return all((I, 2 * H, 2 * C) == (w * s, w * w * s + w ** 4, s - 2 * w * w)
               for (H, I, C), s, w in ((domain.conserved_components(*q.state),
                                        q.x1 ** 2 + q.x2 ** 2, q.w) for q in points))


def union_is_invariant(probe) -> bool:
    """An ``invariance_probe`` orbit stays within 1e-12 of R: Runge-Kutta stages add field
    values, tangent to R, so samples stray by rounding (2e-15 from 200 chart starts to t = 20)."""
    return probe.max_distance_to_union < 1e-12


def pieces_not_invariant(probe) -> bool:
    """An ``invariance_probe`` orbit leaves M1 as often as the puncture
    schedule predicts, and at least once."""
    return probe.puncture_count >= 1 and probe.puncture_count == probe.predicted_punctures


def invariant_suite(rng, level):
    n = 100 if level == QUICK else 1000
    checks = [("rank3_generic", rank3_generic(rng, n))]
    # chart points with x2 != 0 (M1), x2 = 0 (M2) and w = 0 (the ring)
    pieces = [invariant_sets.RankTwoPoint(*xw) for _ in range(n // 2) for xw in (
        (rng.uniform(-2, 2), _signed(rng), rng.uniform(-2, 2)),
        (_signed(rng), 0.0, rng.uniform(-2, 2)), (_signed(rng), rng.uniform(-2, 2), 0.0))]
    checks.append(("rank2_on_pieces", rank2_on_pieces(pieces)))
    probe = invariant_sets.invariance_probe(invariant_sets.RankTwoPoint(0.0, 1.0, 1.0),
                                            10.0 if level == QUICK else 20.0)
    # drawn last, so that the samples of the other checks do not depend on them
    generic = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(n)]
    grid = chart_grid()
    return checks + [
        ("singular_values_match_svd",
         singular_values_match_svd(np.vstack([generic, [q.state for q in pieces]]))),
        ("rank2_multiplier_identity", rank2_multiplier_identity(grid)),
        ("rank2_field_is_rotation", rank2_field_is_rotation(grid)),
        ("invariant_I_factorizes", invariant_I_factorizes(grid)),
        ("union_is_invariant", union_is_invariant(probe)),
        ("pieces_not_invariant", pieces_not_invariant(probe)),
    ]


SUITES = {
    "core": structure_suite,
    "equilibria": equilibria_suite,
    "integrate": integrate_suite,
    "solutions": solutions_suite,
    "invariant_sets": invariant_suite,
}


def run_all(seed: int, level: str = QUICK) -> dict:
    """Run every suite on its own seeded generator; deterministic report."""
    if level not in (QUICK, FULL):
        raise ValueError(f"unknown level {level!r}")
    results = []
    for suite_name in sorted(SUITES):
        rng = random.Random(f"{suite_name}:{seed}")
        for name, passed in SUITES[suite_name](rng, level):
            results.append({"suite": suite_name, "name": name, "passed": bool(passed)})
    results.sort(key=lambda r: (r["suite"], r["name"]))
    return {
        "seed": seed,
        "level": level,
        "all_passed": all(r["passed"] for r in results),
        "results": results,
    }
