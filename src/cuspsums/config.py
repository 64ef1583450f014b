"""Experiment configuration: flat key = value files and their validation.

The format is deliberately dumb: UTF-8 text, one ``key = value`` pair per
line, ``#`` starts a comment, lists are comma-separated.  Every key has a
default, so an empty file (or no file at all) is a valid configuration.
Unknown keys are rejected instead of ignored; a silently skipped typo in
``delta_exponent`` would change the whole sweep.  The four grid lists are
sets: their order is ignored and a repeated entry is refused.
"""

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from .calibrated import OMEGA_THRESHOLD
from .errors import ConfigError

_MAX_SEED = 2 ** 64 - 1

# quadrature node ceiling per weighted integral, oscillatory or diagonal
NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated knobs shared by all CLI commands.

    table        path of the coefficient cache (created by the coeffs command)
    n            coefficient count used when (re)building the cache
    ms           window starts M for the mean-square sweep
    ks           denominators k for the mean-square sweep
    delta_coeff  c in the row rule Delta = c k M^p (weight.window_weight)
    delta_exponent  p in the row rule, admissible range (1/2, 1]
    rise_fraction   weight ramp width as a fraction of Delta
    node_budget  quadrature node ceiling per oscillatory integral
    out          output directory for CSV / JSON / SVG artifacts
    seed         RNG seed; fixing it pins every sampled x to the byte
    omega_delta      window length Delta of the omega command's sums
    omega_windows    number of sampled window starts for the omega command
    omega_threshold  max |sum| / sqrt(Delta) the omega command must reach
    voronoi_ms       scales M of the voronoi scan; x is sampled in [M, 2M]
    voronoi_ks       denominators k of the voronoi scan, twisted by 1/k
    voronoi_samples  sampled x per (M, k) of the voronoi scan
    """

    table: str = "tau.cache"
    n: int = 1_000_000
    ms: tuple[float, ...] = (1e4, 3e4, 1e5, 3e5)
    ks: tuple[int, ...] = (1, 2, 3, 5, 7)
    delta_coeff: float = 4.0
    delta_exponent: float = 0.55
    rise_fraction: float = 0.25
    node_budget: int = NODE_BUDGET
    out: str = "out"
    seed: int = 20260815
    omega_delta: float = 1.0e3
    omega_windows: int = 100
    omega_threshold: float = OMEGA_THRESHOLD
    voronoi_ms: tuple[float, ...] = (1.0e4, 1.0e5)
    voronoi_ks: tuple[int, ...] = (1, 3, 5)
    voronoi_samples: int = 50

    def __post_init__(self) -> None:
        for name in ("ms", "ks", "voronoi_ms", "voronoi_ks"):
            grid = getattr(self, name)
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{name} repeats an entry: {grid}")
            object.__setattr__(self, name, tuple(sorted(grid)))
        # the voronoi scan truncates at N = round(M) and keys M's k-slope by N
        for low, high in zip(self.voronoi_ms, self.voronoi_ms[1:]):
            if f"{low:.0f}" == f"{high:.0f}":
                raise ConfigError(f"voronoi_ms {low} and {high} both round to {low:.0f}")
        if self.n < 1:
            raise ConfigError(f"n must be a positive count, got {self.n}")
        if not self.ms or any(m < 2.0 for m in self.ms):
            raise ConfigError(f"ms must be window starts >= 2, got {self.ms}")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ConfigError(f"ks must be denominators >= 1, got {self.ks}")
        if self.delta_coeff <= 0.0:
            raise ConfigError(f"delta_coeff must be > 0, got {self.delta_coeff}")
        if not 0.5 < self.delta_exponent <= 1.0:
            raise ConfigError(
                "delta_exponent must lie in (1/2, 1], got "
                f"{self.delta_exponent}"
            )
        if not 0.0 < self.rise_fraction <= 0.5:
            raise ConfigError(
                f"rise_fraction must lie in (0, 1/2], got {self.rise_fraction}"
            )
        if self.node_budget < 16:
            raise ConfigError(
                f"node_budget below one quadrature panel: {self.node_budget}"
            )
        if not 0 <= self.seed <= _MAX_SEED:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.omega_delta < 1.0:
            raise ConfigError(
                f"omega_delta must be >= 1, got {self.omega_delta}"
            )
        if self.omega_windows < 1:
            raise ConfigError(
                f"omega_windows must be >= 1, got {self.omega_windows}"
            )
        if self.omega_threshold <= 0.0:
            raise ConfigError(
                f"omega_threshold must be > 0, got {self.omega_threshold}"
            )
        if not self.voronoi_ms or any(m < 2.0 for m in self.voronoi_ms):
            raise ConfigError(f"voronoi_ms must be >= 2, got {self.voronoi_ms}")
        if not self.voronoi_ks or any(k < 1 for k in self.voronoi_ks):
            raise ConfigError(f"voronoi_ks must be >= 1, got {self.voronoi_ks}")
        if self.voronoi_samples < 1:
            raise ConfigError(
                f"voronoi_samples must be >= 1, got {self.voronoi_samples}"
            )
        scan_rows = (self.voronoi_samples * len(self.voronoi_ms)
                     * len(self.voronoi_ks))
        if scan_rows < 2:
            raise ConfigError(
                "the voronoi envelope fit needs at least two samples; "
                "voronoi_samples x voronoi_ms x voronoi_ks gives "
                f"{scan_rows}"
            )


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_list(key: str, text: str, item):
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ConfigError(f"{key}: empty entry in list {text!r}")
    return tuple(item(key, p) for p in parts)


# field type -> value parser; the dataclass does range validation afterwards.
# The module has no postponed annotations, so each field's type is the
# annotation itself and one entry serves every field of that type.
_PARSERS = {
    str: lambda key, text: text,
    int: _parse_int,
    float: _parse_float,
    tuple[int, ...]: lambda key, text: _parse_list(key, text, _parse_int),
    tuple[float, ...]: lambda key, text: _parse_list(key, text, _parse_float),
}


def parse_config(path) -> ExperimentConfig:
    """Read a key = value file and return the validated configuration."""
    text = Path(path).read_text(encoding="utf-8")
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        overrides[key] = _PARSERS[types[key]](key, value)
    return ExperimentConfig(**overrides)


def load_config(path=None, **overrides) -> ExperimentConfig:
    """parse_config when a path is given, defaults otherwise, then apply
    keyword overrides (used for CLI flags); None overrides are ignored."""
    cfg = parse_config(path) if path is not None else ExperimentConfig()
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **cleaned) if cleaned else cfg


def config_lines(cfg: ExperimentConfig) -> Sequence[str]:
    """Render a configuration back to canonical key = value lines.

    The output directory and the cache path are skipped: they say where
    artifacts land and where the coefficients are read from, not what was
    computed, and reports must not change bytes when either moves. The
    cache's contents are identified by the provenance's table_sha256.
    """
    out = []
    for f in fields(ExperimentConfig):
        if f.name in ("out", "table"):
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ", ".join(_render_scalar(v) for v in value)
        else:
            rendered = _render_scalar(value)
        out.append(f"{f.name} = {rendered}")
    return out


def _render_scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
