"""Sharpening the certificate by optimizing over local unitaries.

The Schmidt number is invariant under local unitaries but the overlap
ratio is not, so rotating one state before comparing can only help.
Against the maximally entangled state the optimized ratio equals d times
the fully entangled fraction, giving two independent routes to the same
number.
"""

import numpy as np

from overlapcert import (
    OptConfig,
    PureVec,
    fully_entangled_fraction,
    isotropic,
    max_entangled,
    overlap_ratio,
    s_hat,
    sample_local_unitary,
    verify_shat_fef_identity,
)

cfg = OptConfig(restarts=4, seed=1)

print("== recovering a hidden rotation ==")
d = 3
rng = np.random.default_rng(5)
w = sample_local_unitary(d, rng)
psi = max_entangled(d)
hidden = PureVec((d, d), np.kron(np.eye(d), w) @ psi.vec).projector()
plain = overlap_ratio(hidden, psi.projector()).s
res = s_hat(hidden, psi.projector(), cfg)
print(f"  plain ratio {plain:.4f} -> optimized {res.value:.6f} (ideal {d})")
print(f"  ascent took {len(res.trajectory) - 1} steps, "
      f"converged={res.converged}")

print()
print("== two routes to the same certificate ==")
for x in (0.5, 0.8):
    rho = isotropic(d, x)
    out = verify_shat_fef_identity(rho, cfg)
    print(f"  isotropic x={x}: optimized ratio {out['s_hat']:.5f}, "
          f"d * FEF {out['d_times_fef']:.5f} "
          f"(relative deviation {out['rel_dev']:.1e})")

print()
print("== fully entangled fraction on its own ==")
for x in (0.25, 0.6, 1.0):
    f = fully_entangled_fraction(isotropic(d, x), cfg)
    print(f"  isotropic x={x}: FEF = {f:.5f} (closed form: {x})")
