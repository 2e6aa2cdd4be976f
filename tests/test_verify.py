"""The tests call ``mbloch.verify``'s checks instead of restating them, so
each case breaks one formula and asserts that the named checks of a suite
pass before the break and fail after it: none of them is vacuous."""

import numpy as np
import pytest

from mbloch import core, equilibria, integrate, invariant_sets, verify

FIELD = core.field_components


def drop_x2y2_from_dz(monkeypatch):
    # z' = -x1 y1 instead of -(x1 y1 + x2 y2)
    def broken(x1, y1, x2, y2, z):
        dx1, dy1, dx2, dy2, _ = FIELD(x1, y1, x2, y2, z)
        return dx1, dy1, dx2, dy2, -(x1 * y1)

    for module in (core, integrate):
        monkeypatch.setattr(module, "field_components", broken)


def scale_quartic_roots(monkeypatch):
    roots = equilibria.quartic_roots
    monkeypatch.setattr(equilibria, "quartic_roots",
                        lambda poly: [1.01 * r for r in roots(poly)])


def flip_grad_I_entry(monkeypatch):
    grad = invariant_sets.grad_I
    monkeypatch.setattr(invariant_sets, "grad_I",
                        lambda p: grad(p) * [1.0, 1.0, 1.0, -1.0, 1.0])


@pytest.mark.parametrize("suite,break_formula,names", [
    ("core", drop_x2y2_from_dz, {"hamiltonian_poisson_form", "invariants_along_flow"}),
    ("equilibria", scale_quartic_roots, {"quartic_root_reconstruction"}),
    ("integrate", drop_x2y2_from_dz, {"rk4_conserved_drift"}),
    ("solutions", drop_x2y2_from_dz, {"homoclinic_solves_system",
                                      "periodic_solves_system",
                                      "polar_chart_pushforward"}),
    ("invariant_sets", drop_x2y2_from_dz, {"union_is_invariant"}),
    ("invariant_sets", flip_grad_I_entry, {"rank2_on_pieces"}),
])
def test_broken_formula_fails_named_checks(monkeypatch, suite, break_formula, names):
    def run():
        report = dict(verify.SUITES[suite](np.random.default_rng(0), verify.QUICK))
        return {name: report[name] for name in names}

    assert all(run().values())
    break_formula(monkeypatch)
    assert not any(run().values())
