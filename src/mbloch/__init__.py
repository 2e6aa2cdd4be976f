"""Five-component Maxwell-Bloch system: Hamilton-Poisson structure,
equilibrium stability classification, explicit homoclinic and periodic
solutions, and the rank-2 invariant set."""

from .core import (ConservedTriple, DomainError, conserved,
                   grad_C, grad_H, grad_I, poisson_bracket, poisson_tensor,
                   vector_field)
from .equilibria import (ClassificationResult, cartan_classify,
                         leaf_linearization, origin_stability_certificate,
                         pencil_char_poly, quartic_roots)
from .integrate import (DriftReport, IntegratorConfig, Trajectory,
                        drift_report, rk4_step)
from .integrate import integrate as integrate_system
from .invariant_sets import (M1Point, M2Point, RankReport, invariance_probe,
                             jacobian_F, m1_conserved, m1_embed,
                             m1_reduced_field, m2_embed, rank_F)
from .solutions import (HomoclinicParams, PeriodicParams, PolarState,
                        PunctureSchedule, homoclinic, homoclinic_derivative,
                        m1_solution, periodic_solution, polar_to_state,
                        puncture_times, reduced_polar_field, state_to_polar)

__version__ = "0.1.0"
