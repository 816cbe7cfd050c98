"""Walkthrough: the joint-distribution polytope behind every verdict.

Every probability vector this library reasons about lives in the polytope
{ M q : q >= 0, sum q = 1 } where the 0/1 matrix M sums atom probabilities
into observed-pair and connection-pair cells. This script builds M, shows
the smaller chordal program the oracle solves in its place (one table per
triangle of the variables' cycle), runs the exact LP oracle on a few
systems, and pulls out an explicit joint distribution witnessing the
minimal total mismatch.
"""

from fractions import Fraction

from contextuality import bell, oracle
from contextuality.generators import pr_signaling_family, random_system, split_seed

F = Fraction

vm = oracle.build_vertex_matrix("bell")
print(f"vertex matrix ({vm.kind}): {vm.n_rows} event rows x {vm.n_atoms} atoms")
print(f"first rows: {vm.row_labels[:2]} ... {vm.row_labels[-1]}")
first_column_sum = sum(row[0] for row in vm.entries)
print(f"every atom column hits one cell per pair group: column sum = {first_column_sum}")
# The oracle asks the same questions of one 8-cell table per triangle of the
# fanned variable cycle: exact, since tables that agree on a chordal cover
# extend to a joint distribution. Shapes of its compiled "min" program (the
# "max" program has the same rows, and all three start from the basis of one
# phase 1) and its "feasibility" program next to the atom programs over M:
n_conn = (vm.n_rows - vm.n_observed_rows) // 4
for sense, atom_rows in (("min", vm.n_observed_rows), ("feasibility", vm.n_observed_rows + n_conn)):
    chordal = oracle._template("bell", sense)
    print(f"{sense:>11} program: chordal {len(chordal.constraints)} x {len(chordal.variables)}, "
          f"atoms {atom_rows} x {vm.n_atoms}")
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
print(f"minimal-mismatch witness has {len(support)} atoms of {vm.n_atoms}:")
for k, w in support[:6]:
    bits = [(name, "+" if not (k >> (len(vm.variables) - 1 - i)) & 1 else "-")
            for i, name in enumerate(vm.variables)]
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
