"""cuspsums: numerical laboratory for short sums of cusp-form coefficients.

Exact Ramanujan tau tables, exponential sums at rational points, a truncated
dual-sum approximation, oscillatory-integral bound checks, and a mean-square
experiment harness with a CSV/JSON/SVG command-line driver.
"""

__version__ = "0.1.0"
