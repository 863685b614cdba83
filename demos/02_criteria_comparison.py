"""Comparing detection criteria on the corner-isotropic family.

rho(x) mixes the maximally entangled state with noise confined to the
(d-1)x(d-1) corner block.  It is entangled for every x > 0, which makes
it a sharp benchmark: each criterion has its own detection threshold in
x, and lower is better.
"""

from overlapcert import (
    corner_fbc_psi_boundary,
    corner_isotropic,
    extract_ipc_witness,
    fbc_spectrum_bound,
    fbc_witness_value,
    max_entangled,
    overlap_ratio,
    p3_ppt_check,
    purity_check,
    reduction_check,
)

d = 5
psi = max_entangled(d)
print(f"== corner-isotropic family at d={d} ==")
print(f"{'x':>6} {'ratio':>6} {'purity':>7} {'fidelity':>9} {'p3-moment':>10}")
for x in (0.02, 0.1, 0.2, 0.3, 0.5, 0.8):
    rho = corner_isotropic(d, x)
    via_ratio = reduction_check(rho, 1).detected  # same reach as the ratio test
    via_purity = purity_check(rho).detected
    via_fbc = fbc_witness_value(rho, psi, 1).detected
    via_p3 = p3_ppt_check(rho).detected
    mark = lambda b: "yes" if b else "-"
    print(f"{x:>6.2f} {mark(via_ratio):>6} {mark(via_purity):>7} "
          f"{mark(via_fbc):>9} {mark(via_p3):>10}")

print()
print("closed-form thresholds in x:")
print(f"  ratio criterion : 0 (every x > 0 is detected)")
print(f"  fidelity witness: {corner_fbc_psi_boundary(d, 1):.4f}")

print()
print("== detection beyond the reach of any fidelity witness ==")
# Between the ratio boundary and the spectral bound, states are detected
# by the overlap ratio although no rank-r fidelity witness can see them.
x = 0.12
rho = corner_isotropic(d, x)
print(f"  x={x}: spectral bound blocks all rank-1 fidelity witnesses: "
      f"{fbc_spectrum_bound(rho, 1)}")
witness = extract_ipc_witness(rho, 1)
print(f"  ...yet the extracted partner state reaches ratio "
      f"{overlap_ratio(rho, witness).s:.4f} > 1")
