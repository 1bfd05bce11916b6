"""Solve the transformed problem on the moving ball and watch the norms.

u_t - div(grad u) + u = sin(u) on the moving ball, conormal boundary
condition, solved in the fixed frame with the radial finite-volume
discretization and the implicit-explicit crank-nicolson stepper.
"""

import numpy as np

from movingdom import (BallDomain, RadialGrid, StepperConfig, assemble,
                       norm_L2, parse_diffeo, run)

spec = parse_diffeo(
    3, BallDomain(3),
    ["y1 / (exp(0 - t^2) + 1)",
             "y2 / (exp(0 - t^2) + 1)",
             "y3 / (exp(0 - t^2) + 1)"],
    ["x1 * (exp(0 - t^2) + 1)",
             "x2 * (exp(0 - t^2) + 1)",
             "x3 * (exp(0 - t^2) + 1)"],
)
p = assemble(spec, beta=1.0, f="sin(u)",
             initial="1 - (y1^2 + y2^2 + y3^2)")
g = RadialGrid(3, 128)
cfg = StepperConfig(dt=0.005, scheme="crank-nicolson", cg_tol=1e-11,
                    snapshot_every=200)

traj = run(p, g, cfg, 0.0, 3.0)

# the radial grid is solved directly (no CG iterations to report), so the
# last column shows the conormal boundary-flux residual instead
print("   t      L2 norm    H1 norm      mass     bdry flux")
for mm in traj.metrics[::100]:
    print(f"{mm.t:5.2f}  {mm.L2:10.4e} {mm.H1:10.4e} {mm.mass:10.4e}  "
          f"{mm.boundary_residual:10.4e}")

final = traj.final
print(f"\nfinal max |v| = {np.abs(final).max():.4e}; "
      f"snapshots kept: {len(traj.snapshots)}")

# the same run without forcing and drift: pure dissipation
hom = run(p, g, cfg, 0.0, 3.0, homogeneous=True)
print(f"homogeneous comparison at t=3: "
      f"forced {norm_L2(g, final):.4e} vs "
      f"decayed {norm_L2(g, hom.final):.4e}")
