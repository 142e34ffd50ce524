"""Three independent routes to the same consistency solution.

With positive external fields the consistency system x_r = F((Mx)_r + h_r)
has a unique solution.  The package solves it by (i) Newton's method from
above on the fixed-point equation, (ii) Newton ascent on the reduced
objective pi over the odd components, and (iii) the nested scalar
construction that peels the chain one ratio variable at a time.  Each
reports ``converged`` only when its error estimate is within ``tol``.  The
three agree to solver precision, and the auxiliary-chain identities hold at
the output.
"""

import numpy as np

from nishimori_dbm import (
    ModelSpec,
    build_effective,
    grad_p_var,
    nested_bisection_chain,
    solve_fixed_point,
    solve_nested_bisection,
    solve_pi_ascent,
)

spec = ModelSpec(
    k=4,
    alpha=[0.3, 0.2, 0.3, 0.2],
    mu=[2.4, 1.1, 2.9],
    h=[0.15, 0.40, 0.05, 0.30],
)
print("model: K=4, alpha =", spec.alpha.tolist(), "mu =", spec.mu.tolist(),
      "h =", spec.h.tolist())

fp = solve_fixed_point(spec, tol=1e-12)
pa = solve_pi_ascent(spec, tol=1e-10)
nb = solve_nested_bisection(spec)

print("\nsolutions:")
for sol in (fp, pa, nb):
    print(f"  {sol.method.value:17s} x_bar = {np.round(sol.x_bar, 10).tolist()} "
          f"({sol.iterations} iterations)")
print(f"\nmax deviation ascent vs fixed point:  "
      f"{np.abs(pa.x_bar - fp.x_bar).max():.2e}")
print(f"max deviation nested vs fixed point:  "
      f"{np.abs(nb.x_bar - fp.x_bar).max():.2e}")
print(f"pressure value: {fp.pressure:.12f}")
print(f"gradient at the solution (max |.|): "
      f"{np.abs(grad_p_var(fp.x_bar, spec)).max():.2e}")

x, chain = nested_bisection_chain(spec)
print("\nauxiliary chain of the nested construction:")
print("  ratios a      =", np.round(chain.a, 8).tolist())
print("  couplings th  =", np.round(chain.theta, 8).tolist())
lhs = spec.alpha[:-1] * x[:-1] * chain.a
rhs = spec.alpha[1:] * x[1:]
print(f"  ratio relation alpha_r x_r a_r = alpha_r+1 x_r+1: "
      f"max error {np.abs(lhs - rhs).max():.2e}")
mx = build_effective(spec).m @ x
print(f"  scalar reduction (Mx)_r = theta_r x_r:            "
      f"max error {np.abs(mx - chain.theta * x).max():.2e}")
