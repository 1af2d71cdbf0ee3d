"""Chord-gap (Edmundson-Lah-Ribaric) bounds for higher-order convex functions.

The package computes the gap between A(f(g)) and the chord of f for discrete
positive normalized linear functionals, decomposes it exactly through
confluent divided differences and two-point Hermite interpolation, certifies
one- and two-sided bounds keyed on n-convexity and parity, and applies the
machinery to generalized f-divergences and Zipf-Mandelbrot laws.  A built-in
oracle re-verifies every identity and bracket numerically.

The package namespace is every name in the `__all__` of its seven library
modules; the command line (`elrbounds.cli`) is not imported with it.
"""

from . import bounds, divergence, divided_diff, functional, generators, oracle, zipf

__version__ = "0.1.0"

_MODULES = (divided_diff, functional, bounds, divergence, generators, zipf, oracle)

globals().update({name: getattr(module, name) for module in _MODULES for name in module.__all__})

__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
