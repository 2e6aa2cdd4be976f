"""Five-component Maxwell-Bloch system: Hamilton-Poisson structure,
equilibrium stability classification, explicit homoclinic and periodic
solutions, and the rank-2 invariant set."""

__version__ = "0.1.0"
