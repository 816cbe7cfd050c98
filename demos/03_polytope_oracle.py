"""Walkthrough: the joint-distribution polytope behind every verdict.

Every probability vector this library reasons about lives in the polytope
{ M q : q >= 0, sum q = 1 } where the 0/1 matrix M sums atom probabilities
into observed-pair and connection-pair cells. This script gives M's shape
from the variables' cycle, shows the smaller chordal program the oracle
solves in its place (one table per triangle of that cycle), runs the exact
LP oracle on a few systems, and pulls out an explicit joint distribution
witnessing the minimal total mismatch.
"""

from fractions import Fraction

from contextuality import bell, oracle
from contextuality.generators import pr_signaling_family, random_system, split_seed

F = Fraction

# M has 4 rows per observed pair and per connection, and one column per atom:
# each of the 2^(2n) assignments of +/-1 to the 2n variables hits one cell of
# every pair.
variables, observed, connections = oracle._CYCLES["bell"]
n_atoms = 2 ** len(variables)
observed_rows = 4 * len(observed)
print(f"vertex matrix (bell): {observed_rows + 4 * len(connections)} event rows x {n_atoms} atoms")
# The oracle asks the same questions of one 8-cell table per triangle of the
# fanned variable cycle: exact, since tables that agree on a chordal cover
# extend to a joint distribution. Shapes of its compiled "min" program (the
# "max" program has the same rows; each starts from its own phase 1) and its
# "feasibility" program next to the atom programs over M:
for sense, atom_rows in (("min", observed_rows), ("feasibility", observed_rows + len(connections))):
    chordal = oracle._template("bell", sense)
    print(f"{sense:>11} program: chordal {len(chordal.constraints)} x {len(chordal.variables)}, "
          f"atoms {atom_rows} x {n_atoms}")
print()

# The maximal box cannot couple with identical connections...
box = pr_signaling_family(1, 0)
print("maximal box, identity connections feasible?",
      oracle.compatible(box, (0, 0, 0, 0)))
# ...but mismatch 1/4 on each connection suffices.
print("maximal box, quarter mismatch feasible?  ",
      oracle.compatible(box, (F(1, 4),) * 4))
lo, hi = oracle.delta_extrema(box)
print(f"total mismatch range by LP: [{lo}, {hi}]")
print()

# A witness: the minimal-mismatch joint distribution itself.
result = oracle.report(box)
support = [(k, w) for k, w in enumerate(result.witness_joint) if w]
print(f"minimal-mismatch witness has {len(support)} atoms of {n_atoms}:")
for k, w in support[:6]:
    bits = [(name, "+" if not (k >> (len(variables) - 1 - i)) & 1 else "-")
            for i, name in enumerate(variables)]
    print(f"  q[{k:3d}] = {w}   " + " ".join(f"{n}={s}1" for n, s in bits))
if len(support) > 6:
    print(f"  ... and {len(support) - 6} more")
print()

# On random systems the LP extrema coincide exactly with the closed form.
print("random systems: closed-form interval == LP interval")
for i in range(5):
    sys = random_system("bell", split_seed(2024, i))
    closed = bell.delta_interval(sys)
    ground = oracle.delta_extrema(sys)
    marker = "ok" if closed == ground else "MISMATCH"
    print(f"  seed {i}: closed={closed} lp={ground}  {marker}")
    assert closed == ground
