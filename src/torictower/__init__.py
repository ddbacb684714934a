"""Exact-arithmetic combinatorial engine for special toric towers.

Builds the level fans of towers defined by product and node moves,
computes toric divisors, Cartier data and log discrepancies, realizes the
congruent birational identification with projective space over the base,
performs base change to a curve germ, and verifies the lc-place transfer
and degree/volume bookkeeping at desk scale - all over exact integers and
rationals.
"""

from .lattice import fan_validate  # unused here; the benchmark self-tests trace this binding

__version__ = "0.1.0"
