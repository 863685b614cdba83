"""Estimating the overlap ratio from simulated randomized measurements.

Both states are measured in randomly rotated product bases, with the
same rotations applied to each.  The same outcome records provide the
global overlap (full strings) and the local overlaps (marginalized
strings), so one data set yields the whole certificate.
"""

from overlapcert import (
    ProtocolConfig,
    estimate_overlaps,
    isotropic,
    run_protocol,
    sn_bound_from_ratio,
)

rho = isotropic(4, 0.9)    # two qubits per side
sigma = isotropic(4, 1.0)
truth = 3.6

print("== exact outcome probabilities, growing number of settings ==")
for n_u in (100, 400, 1600):
    cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=n_u, seed=7)
    est = estimate_overlaps(run_protocol(rho, sigma, cfg), cfg)
    print(f"  {n_u:>5} settings: s = {est.s:.3f} +- {est.se_s:.3f} "
          f"(truth {truth})")

print()
print("== finite shots per setting ==")
cfg = ProtocolConfig(local_dim=2, m=2, n=2, n_unitaries=1000,
                     shots_per_setting=1000, seed=8)
est = estimate_overlaps(run_protocol(rho, sigma, cfg), cfg)
conservative = sn_bound_from_ratio(est.s - 2 * est.se_s)
print(f"  1000 settings x 1000 shots: s = {est.s:.3f} +- {est.se_s:.3f}")
print(f"  certified SN >= {conservative} (point estimate minus two sigma)")
