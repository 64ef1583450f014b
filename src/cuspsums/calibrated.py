"""Caps measured by this package's own runs.

Each value comes from the named procedure at recorded settings and is
frozen here so tests are reproducible. Re-measuring them is part of the
test suite. Constants that follow from a closed form live beside it
instead (weight.RAMP_SLOPE_MAX).
"""

# Largest |integral| / first-derivative-test bound seen in the certificate
# sweep (families L3/L4/L5, m,n from 1..16 plus the near-degenerate pair
# (2,3), M in {1e4, 3e4, 1e5}, k in {1, 2, 5}). Measured 0.02693; the
# certificates hold with a factor ~37 to spare, so any ratio past this cap
# means a regression, not a tight case.
JM_RATIO_MAX = 0.05

# Largest |integral| / stated family bound over the same sweep at orders
# p in {1, 2}. The stated bounds carry an implied constant; it is largest
# for the difference families at order 2 on the near-degenerate pair (2,3)
# with k = 5, where the phase completes only ~2 cycles. Measured 181.72.
STATED_RATIO_MAX = 250.0

# Normalized window-sum threshold for the omega statistic: over 100
# window starts drawn as sorted uniform(delta, n_max - 2 delta) from
# default_rng(20260815) with delta = 1e3 against the 1e6-coefficient
# table, max |sum a(n)| / sqrt(delta) measured 0.541230 (runner-up
# 0.464499, rms 0.200616).  The run is deterministic, so any rerun with
# the same seed and table must clear this with the same 20% margin.
OMEGA_THRESHOLD = 0.45
