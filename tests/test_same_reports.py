"""benchmarks/same_reports.py: the repeat rule, the medians, the coeffs
cache and the JSON leaves.

Every repeat on either side is held against the parent's first repeat,
the printed medians are those of each side's own runs, no run hands the
user's coefficient cache to ``coeffs``, which would overwrite it, and a
differing JSON report names the leaves that differ.
"""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(module, stdout=b"wrote 1 file\n", csv=b"n,a\n1,2\n3,4\n", minflt=100):
    return module.Run(0, stdout, b"", {"rows.csv": csv},
                      {"minflt": minflt, "maxrss_kib": 2 * minflt,
                       "cpu_s": minflt / 1000})


def test_every_repeat_is_held_against_the_parents_first(same_reports):
    same = {"one": _run(same_reports), "two": _run(same_reports, stdout=b"")}
    assert same_reports.differences({"parent": [same, same],
                                     "change": [same, same]}) == []
    parent_repeat = dict(same, two=_run(same_reports, stdout=b"warm\n"))
    change_repeat = dict(same, one=_run(same_reports, csv=b"n,a\n1,2\n3,5\n"))
    runs = {"parent": [same, parent_repeat], "change": [same, change_repeat]}
    assert same_reports.differences(runs) == [
        "parent pair 1: two: stdout differs",
        "change pair 1: one: rows.csv differs (1 data rows differ: 2)"]


def test_medians_are_each_sides_own(same_reports):
    parent = [{"one": _run(same_reports, minflt=f)} for f in (500, 100, 300)]
    change = [{"one": _run(same_reports, minflt=f)} for f in (40, 20)]
    assert same_reports.medians(parent) == {
        "one": {"minflt": 300, "maxrss_kib": 600, "cpu_s": 0.3}}
    assert same_reports.medians(change) == {
        "one": {"minflt": 30, "maxrss_kib": 60, "cpu_s": 0.03}}


def test_coeffs_never_writes_the_users_table(same_reports, tmp_path):
    table = tmp_path / "tau1e6.cache"
    runs = same_reports.commands(ROOT, table)
    assert len(runs) == 21
    # every coeffs run but the one that prints its help writes a cache
    coeffs = [args for args in runs.values()
              if args[0] == "coeffs" and "--help" not in args]
    assert coeffs
    for args in coeffs:
        assert str(table) not in args
        assert args[args.index("--table") + 1] == same_reports.COEFFS_CACHE


def test_run_once_keeps_streams_apart_and_counts(same_reports):
    # the refusal of a missing table: exit 3, its message on stderr alone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = same_reports.run_once(
        "omega-io", ["omega", "--json", "--table", "missing.cache"], env)
    assert run.code == 3
    assert run.stdout == b""
    assert b"missing.cache" in run.stderr
    assert run.files == {}
    assert run.counters["minflt"] > 0 and run.counters["maxrss_kib"] > 0


def test_a_json_report_names_its_differing_leaves(same_reports):
    # one integral changed in its last digit, as a rounding change moves it
    old = (b'{"rows": [{"integral": 2300.9900420177532, "k": 1},\n'
           b'          {"integral": 25096.21956073311, "k": 2}]}\n')
    new = old.replace(b"25096.21956073311", b"25096.219560733114")
    ref = same_reports.Run(0, b"", b"", {"meansquare.json": old}, {})
    run = same_reports.Run(0, b"", b"", {"meansquare.json": new}, {})
    assert same_reports.run_differences(ref, run) == [
        "meansquare.json differs (1 leaves differ: /rows/1/integral; "
        "largest relative difference 1.4e-16)"]
