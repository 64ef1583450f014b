"""The package namespace: no re-exports, and a README example that runs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import cuspsums

_ROOT = Path(__file__).resolve().parents[1]


def _loaded_by(module: str, then: str = "None") -> list[str]:
    """The cuspsums modules a fresh interpreter holds after importing module
    and running the statement then."""
    src = str(Path(cuspsums.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import json, sys, {module}; {then}; print(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'cuspsums')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.splitlines()[-1])


def test_coeffs_import_loads_only_what_it_uses():
    # the cache certification imports cuspsums.coeffs alone; the package
    # namespace must not pull every layer in behind it
    assert _loaded_by("cuspsums.coeffs") == [
        "cuspsums", "cuspsums.coeffs", "cuspsums.errors"]


def test_cli_import_defers_the_numerical_layers():
    # each command imports the layers it calls when it runs, so `coeffs`
    # never loads the sums, the quadrature or the sweep
    loaded = _loaded_by("cuspsums.cli")
    assert "cuspsums.cli" in loaded
    for layer in ("meansquare", "oscillatory", "voronoi", "weight", "sums"):
        assert f"cuspsums.{layer}" not in loaded


def test_verify_lemmas_loads_no_sweep(tmp_path):
    # the lemma check reads the window rule from weight, beside the weight
    # it builds, and needs neither the sweep nor the sums
    loaded = _loaded_by("cuspsums.cli", "cuspsums.cli.main(['verify-lemmas', "
                        f"'--out', {str(tmp_path)!r}])")
    assert "cuspsums.oscillatory" in loaded
    for layer in ("meansquare", "voronoi", "sums"):
        assert f"cuspsums.{layer}" not in loaded


def test_readme_library_example_runs(capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
