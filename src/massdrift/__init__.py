"""massdrift: a laboratory for escape of mass of random walks on measured spaces.

Exact evolution of n-step distributions on countable models, brute-force
verification of the fiber conditional-expectation machinery, a zoo of
motivating models (funnel chains, the x - 1/x interval map, lattice-space and
Schottky charts), and reproducible Monte Carlo ensembles.
"""
from . import fibers, kernel, measures, models, montecarlo
from .measures import (GeneratorId, Observable, ReferenceWeights, StateVector,
                       StepLaw, invert_law, is_symmetric, pair)

__version__ = "0.1.0"

__all__ = [
    "fibers", "kernel", "measures", "models", "montecarlo",
    "GeneratorId", "Observable", "ReferenceWeights", "StateVector", "StepLaw",
    "invert_law", "is_symmetric", "pair",
]
