"""Walkthrough: re-deriving the mismatch bounds by pure projection.

The third route to the mismatch interval: write down the compatibility
constraints with the connection expectations still symbolic, substitute the
equality that defines the total mismatch, then eliminate the connection
variables one at a time by Fourier-Motzkin pairing. Each step merges
parallel rows onto their tightest bound, and that alone keeps the system
small: no LP runs on this route. The coefficients depend only on the rank,
so the steps are compiled once per rank and each system only moves its
right-hand sides through them. What falls out is a system over the single
mismatch variable whose two surviving rows are the interval endpoints.
"""

from fractions import Fraction

from contextuality import bell, fme, lg, oracle
from contextuality.generators import lg_anticorrelated, pr_signaling_family

F = Fraction

box = pr_signaling_family(1, 0)
print("maximal box: projecting the mismatch variable out of the")
print("compatibility constraints leaves")
print()
print(fme.project_to_delta(box).format())
print()
lo, hi = fme.derive_delta_bounds(box)
print(f"projection route : [{lo}, {hi}]")
print(f"closed form      : {bell.delta_interval(box)}")
print(f"LP oracle        : {oracle.delta_extrema(box)}")
print()

# The temporal all-anticorrelated system is the instructive one: the upper
# endpoint is 3, reached by a coupling in which all three connections
# mismatch almost surely. An odd-parity version of the statistic bound would
# wrongly cap it at 2; the projection route never even sees that shortcut,
# it just eliminates variables.
anti = lg_anticorrelated()
print("all-anticorrelated temporal system:")
print()
print(fme.project_to_delta(anti).format())
print()
lo, hi = fme.derive_delta_bounds(anti)
print(f"projection route : [{lo}, {hi}]")
print(f"closed form      : {lg.delta_interval(anti)}")
print(f"LP oracle        : {oracle.delta_extrema(anti)}")
print(f"all-mismatch coupling admissible? {oracle.compatible(anti, (1, 1, 1))}")
