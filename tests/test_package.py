"""The package namespace: no re-exports, src/ holds only what a command or
the benchmark reaches, and a README example that runs."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import cuspsums
from conftest import _span_names

_ROOT = Path(__file__).resolve().parents[1]
_SRC = Path(cuspsums.__file__).resolve().parent


def _loaded_by(module: str, then: str = "None",
               package: str = "cuspsums") -> list[str]:
    """The modules of package a fresh interpreter holds after importing
    module and running the statement then."""
    src = str(Path(cuspsums.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import json, sys, {module}; {then}; print(json.dumps(sorted("
             f"m for m in sys.modules if m.split('.')[0] == {package!r})))")
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
    # never loads the sums, the quadrature or the sweep, nor the voronoi
    # scan's thread pool, whose import of logging costs milliseconds
    loaded = _loaded_by("cuspsums.cli")
    assert "cuspsums.cli" in loaded
    for layer in ("meansquare", "oscillatory", "voronoi", "weight", "sums"):
        assert f"cuspsums.{layer}" not in loaded
    assert _loaded_by("cuspsums.cli", package="concurrent") == []


def test_verify_lemmas_loads_no_sweep(tmp_path):
    # the lemma check reads the window rule from weight, beside the weight
    # it builds, and needs neither the sweep nor the sums
    loaded = _loaded_by("cuspsums.cli", "cuspsums.cli.main(['verify-lemmas', "
                        f"'--out', {str(tmp_path)!r}])")
    assert "cuspsums.oscillatory" in loaded
    for layer in ("meansquare", "voronoi", "sums"):
        assert f"cuspsums.{layer}" not in loaded


def test_meansquare_loads_no_voronoi():
    # the sweep measures and predicts the mean square without the dual sum
    assert "cuspsums.voronoi" not in _loaded_by("cuspsums.meansquare")


def _top_level_defs() -> dict:
    """Name -> (module, node) of every top-level def and class in src/;
    asserts that no name is defined twice, so a reference names one node."""
    defs = {}
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                assert node.name not in defs, (
                    f"{node.name} in {path.stem} and {defs[node.name][0]}")
                defs[node.name] = (path.stem, node)
    return defs


def _references(node) -> set[str]:
    """Every name, attribute and import alias used inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
    return out


def test_every_public_definition_is_reached(tracer):
    # roots: every def of the command line, and every function the benchmark
    # names (the table checks are reached only through it); module-level
    # code is not followed, so private helpers that config's parser table
    # names are left out
    defs = _top_level_defs()
    roots = {name for name, (module, _) in defs.items() if module == "cli"}
    roots |= {span.split(".")[1] for span in _span_names(tracer)}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(_references(defs[name][1]))
    unreached = sorted(f"{module}.{name}" for name, (module, _) in defs.items()
                       if name not in reached and not name.startswith("_"))
    assert unreached == [], f"no command or benchmark name reaches {unreached}"


def test_readme_library_example_runs(capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
