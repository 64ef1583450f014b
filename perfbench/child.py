"""One benchmark child process: a CLI command, a cache certification, or a
set-up probe.

    python3 perfbench/child.py [--spans PATH] cli ARGS...
    python3 perfbench/child.py [--spans PATH] certify CACHE OUT_JSON
    python3 perfbench/child.py setup [CACHE]

With --spans the layer functions are wrapped before the work starts and the
spans are written to PATH when it ends; without it nothing is wrapped.
``setup`` prints, as JSON, the seconds it took to import cuspsums and then
load CACHE, and which coefficient kernel the import selected.
"""

from __future__ import annotations

import json
import sys
import time


def certify(cache: str, out: str) -> int:
    """Load a cache and run the package's own exactness checks on it."""
    from cuspsums import coeffs

    table = coeffs.load_cache(cache)
    deligne = coeffs.deligne_check(table)
    mult = coeffs.hecke_multiplicativity_check(table)
    power = coeffs.hecke_prime_power_check(table)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({
            "n_max": table.n_max,
            "deligne": {"max_ratio": deligne.max_ratio,
                        "argmax_n": deligne.argmax_n,
                        "first_violation": deligne.first_violation},
            "hecke_multiplicativity": {"checks": mult.checks,
                                       "first_failure": mult.first_failure},
            "hecke_prime_power": {"checks": power.checks,
                                  "first_failure": power.first_failure},
        }, handle, indent=2, sort_keys=True)
    return 0


def setup_probe(cache: str | None) -> int:
    start = time.perf_counter()
    import cuspsums
    from cuspsums.coeffs import load_cache

    if cache is not None:
        load_cache(cache)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds,
                      "compiled": getattr(cuspsums, "COMPILED_AVAILABLE", None)}))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        return setup_probe(argv[1] if len(argv) > 1 else None)
    spans = None
    if argv[0] == "--spans":
        spans, argv = argv[1], argv[2:]
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "cli":
            from cuspsums.cli import main as cli_main

            return cli_main(argv[1:])
        if argv[0] == "certify":
            return certify(argv[1], argv[2])
        raise SystemExit(f"unknown child task {argv[0]!r}")
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
