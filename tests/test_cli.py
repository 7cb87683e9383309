import argparse
import contextlib
from fractions import Fraction
import hashlib
import io
import itertools
import json
import os
import re

import pytest

from homoclinic_lab import acceptance, groups, montecarlo
from homoclinic_lab.cli import build_parser, main
from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.montecarlo import ExperimentConfig


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


def test_patterns_json():
    doc = run_json("patterns", "--M", "3", "--range", "2")
    assert doc["schema"] == "1"
    assert doc["command"] == "patterns"
    assert doc["config"] == {"M": 3, "range": 2}
    assert doc["count"] == 41
    assert len(doc["patterns"]) == 41
    assert [2, 2, 2] in doc["patterns"]
    narrow = run_json("patterns", "--M", "5", "--range", "1")
    assert narrow["count"] == 15


def test_patterns_csv():
    code, out, _ = run_cli("patterns", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,l,m"
    assert len(lines) == 42


def test_trees_count_only():
    doc = run_json("trees", "--size", "3", "--count-only")
    assert doc["count"] == 5
    assert doc["config"] == {"size": 3, "count_only": True}
    assert "trees" not in doc


def test_trees_listing():
    doc = run_json("trees", "--size", "2")
    assert doc["count"] == 2
    assert sorted(doc["trees"]) == [["", "A"], ["", "B"]]


def test_kernel_values():
    doc = run_json("kernel", "--radius", "2")
    assert doc["partial_l1"] == "19/27"
    assert doc["full_l1"] == "1"
    terms = doc["element"]["terms"]
    assert len(terms) == 7
    by_word = {t["w"]: (t["num"], t["den"]) for t in terms}
    assert by_word[""] == ("1", "3")
    assert by_word["A"] == ("1", "9")
    assert by_word["AB"] == ("1", "27")
    # the element is the kernel on the negative monoid, with the partial mass
    assert set(by_word) == set(groups.negative_monoid(F2, 2))
    assert sum(Fraction(int(n), int(d)) for n, d in by_word.values()) == \
        Fraction(19, 27)


def test_kernel_z2_and_csv():
    doc = run_json("kernel", "--group", "z2", "--radius", "2")
    assert doc["partial_l1"] == "19/27"
    by_word = {t["w"]: (t["num"], t["den"]) for t in doc["element"]["terms"]}
    assert by_word["(-1,-1)"] == ("2", "27")
    code, out, _ = run_cli("kernel", "--radius", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,num,den"
    assert len(lines) == 4  # header + identity + A + B


def test_fourier_non_member():
    doc = run_json("fourier", "--g", "1")
    assert doc["zero"] is True
    assert doc["member"] is False
    assert doc["witness"] == {"w": "", "k": 1, "M": 3}
    assert doc["mu_hat"] == {"zero": True}
    assert "quotient" not in doc


def test_fourier_member():
    doc = run_json("fourier", "--g", "3 - a - b")
    assert doc["zero"] is False
    assert doc["member"] is True
    assert doc["witness"] is None
    assert doc["mu_hat"] == {"zero": False, "re": ["1", "1"], "im": ["0", "0"]}
    assert doc["quotient"]["terms"] == [{"w": "", "num": "1", "den": "1"}]


def test_fourier_z2_witness():
    doc = run_json("fourier", "--group", "z2", "--M", "4", "--g", "a*b")
    assert doc["zero"] is True
    assert doc["witness"] == {"w": "(1,1)", "k": 1, "M": 4}


def test_fourier_radius_that_decides_neither_exits_one():
    # BA - a is not a member (witness at BA), but radius 1 holds no k/M
    # coordinate and no whole quotient
    code, out, err = run_cli("fourier", "--g", "BA - a", "--radius", "1")
    assert code == 1
    assert out == ""
    assert re.search(r"^error: .*radius 1 ", err)
    assert run_json("fourier", "--g", "BA - a")["mu_hat"] == {"zero": True}


@pytest.mark.parametrize("command", ["kernel", "tau"])
def test_too_deep_cone_exits_one_before_walking(monkeypatch, command):
    def refuse(*args):
        raise AssertionError("cone walked past the guard")
        yield

    monkeypatch.setattr(groups, "cone_levels", refuse)
    code, out, err = run_cli(command, "--radius", "26")
    assert code == 1
    assert out == ""
    assert "error: cone of depth 26 in f2 has 134217727 elements" in err


@pytest.mark.parametrize("command", ["haar-test", "collisions", "tau-test"])
def test_experiments_past_the_store_budget_exit_one(monkeypatch, command):
    # at a 4 KB budget the default folds (to depth 24 and 14) and the
    # default carry window (sample radius 14) are refused before any cone
    # grows or any symbol is drawn
    def refuse(*args):
        raise AssertionError("grew a cone or drew past the budget")

    monkeypatch.setattr(montecarlo, "_STORE_BYTES", 4096)
    monkeypatch.setattr(montecarlo.rng, "child_ids", refuse)
    monkeypatch.setattr(montecarlo.rng, "draw", refuse)
    code, out, err = run_cli(command, "--samples", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "store budget 4096 bytes" in err


def test_divide():
    doc = run_json("divide", "--g", "(1 + a)*(3 - a - b)")
    assert doc["divisible"] is True
    assert [t["w"] for t in doc["quotient"]["terms"]] == ["", "a"]
    doc = run_json("divide", "--g", "a")
    assert doc["divisible"] is False
    assert doc["witness"] == {"w": "a", "k": 1, "M": 3}


def test_cover_seeded():
    doc = run_json("cover", "--radius", "2", "--seed", "5")
    assert doc["command"] == "cover"
    assert doc["output"]["alphabet"] == [0, 2]
    assert all(0 <= e["v"] <= 2 for e in doc["output"]["values"])
    assert set(doc) >= {"carry", "spill"}
    # deterministic for a fixed seed
    assert doc == run_json("cover", "--radius", "2", "--seed", "5")


def test_tau_with_config_file(tmp_path):
    cfg = {
        "group": "f2",
        "alphabet": [0, 2],
        "values": [{"w": "", "v": 2}, {"w": "A", "v": 0}, {"w": "B", "v": 1}],
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(cfg))
    doc = run_json("tau", "--config", str(path), "--site", "")
    got = {e["w"]: e["v"] for e in doc["output"]["values"]}
    assert got == {"": 0, "A": 1, "B": 2}
    assert doc["carry"]["terms"] == [{"w": "", "num": "1", "den": "1"}]


def test_tau_boundary_overflow_exit_code(tmp_path):
    cfg = {"group": "f2", "alphabet": [0, 2], "values": [{"w": "", "v": 2}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli("tau", "--config", str(path), "--site", "")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "boundary overflow"


def test_tau_overflow_site_is_a_word():
    # a seeded radius-6 window whose cascade leaves it below level 6
    code, out, _ = run_cli("tau", "--seed", "39")
    assert code == 1
    site = json.loads(out)["overflow_site"]
    assert site == "BBBAAAA"
    assert groups.format_element(F2, groups.parse_element(F2, site)) == site


def test_percolation_all_ones():
    doc = run_json("percolation", "--ones", "--n", "2")
    assert doc["path"] == "aa"
    assert [s["forcing"] for s in doc["steps"]] == ["pair", "pair"]
    assert doc["steps"][0]["site"] == ""
    assert doc["steps"][1]["site"] == "a"
    assert doc["steps"][0]["pattern"] == [1, 1, 1]


def test_haar_test_small_run_exits_zero():
    code, out, _ = run_cli("haar-test", "--samples", "150", "--radius", "8",
                           "--bins", "6", "--seed", "20260815")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["passed"] is True


@pytest.mark.parametrize("M", ["4", "5"])
def test_tau_test_runs_past_m_three(M):
    doc = run_json("tau-test", "--M", M)
    assert doc["config"]["M"] == int(M)
    assert doc["passed"] is True


@pytest.mark.parametrize("M", ["4", "5"])
def test_collisions_runs_past_m_three(M):
    doc = run_json("collisions", "--M", M)
    assert doc["config"]["M"] == int(M)
    assert doc["family"] is None
    assert doc["passed"] is True


def test_haar_test_at_eval_radius_zero_exits_zero():
    doc = run_json("haar-test", "--eval-radius", "0", "--samples", "300",
                   "--radius", "8", "--bins", "6")
    assert len(doc["coordinates"]) == 1
    assert doc["pair"]["p_value"] is None
    assert doc["passed"] is True


def test_csv_unsupported_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("tau-test", "--samples", "30", "--radius", "10",
                "--format", "csv")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("tau-test", "--group", "z2"),
    ("tau-test", "--jobs", "2"),
    ("collisions", "--bins", "6"),
    ("trees", "--size", "2", "--M", "4"),
    ("patterns", "--group", "z2"),
    ("percolation", "--ones", "--group", "z2"),
    ("collisions", "--radius", "9"),
])
def test_flag_the_subcommand_ignores_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


HAAR_SMALL = ("haar-test", "--samples", "20", "--radius", "8", "--bins", "6")


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_jobs_must_be_a_positive_integer(value, inline_pool, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(*HAAR_SMALL, "--jobs", value)
    assert exc.value.code == 2
    monkeypatch.setenv("HOMOCLINIC_LAB_JOBS", value)
    with pytest.raises(SystemExit) as exc:
        run_cli(*HAAR_SMALL)
    assert exc.value.code == 2
    assert inline_pool == []


def test_haar_test_jobs_are_capped_at_the_cpu_count(inline_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run_cli(*HAAR_SMALL, "--jobs", "1")
    assert run_cli(*HAAR_SMALL, "--jobs", "10000") == serial
    monkeypatch.setenv("HOMOCLINIC_LAB_JOBS", "10000")
    assert run_cli(*HAAR_SMALL) == serial
    assert inline_pool == [2, 2]


def test_haar_test_too_deep_exits_one():
    # sample radius 13 plus the default 12 extra levels is past depth 24
    code, out, err = run_cli("haar-test", "--radius", "13", "--samples", "10")
    assert code == 1
    assert out == ""
    assert "error:" in err and "depth 25" in err


@pytest.mark.parametrize("text", [
    "{}",
    "[1, 2]",
    '{"group": "f2", "alphabet": [0, 3], "values": [{"w": ""}]}',
    None,  # no such file
    # values and alphabet bounds are ints, never coerced
    '{"group": "f2", "alphabet": [0, 3], "values": [{"w": "", "v": 2.9}]}',
    '{"group": "f2", "alphabet": [0, 3], "values": [{"w": "", "v": "3"}]}',
    '{"group": "f2", "alphabet": [0, 3], "values": [{"w": "", "v": true}]}',
    '{"group": "f2", "alphabet": [0.5, 3], "values": [{"w": "", "v": 1}]}',
    '{"group": "f2", "alphabet": [0, 1, 3], "values": [{"w": "", "v": 1}]}',
], ids=["empty", "list", "entry-without-v", "missing-file", "float-value",
        "string-value", "bool-value", "float-bound", "three-bounds"])
def test_malformed_config_exits_one(tmp_path, text):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli("cover", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert text is None or "malformed configuration document" in err


def test_parse_error_exits_one():
    code, _, err = run_cli("fourier", "--g", "a +")
    assert code == 1
    assert "error:" in err


def test_m_below_three_exits_one():
    code, _, err = run_cli("patterns", "--M", "2")
    assert code == 1
    assert "error:" in err
    # cover and tau refuse before their seeded fill draws anything
    for command, M in itertools.product(("cover", "tau"), ("2", "0", "-1")):
        code, out, err = run_cli(command, "--M", M)
        assert (code, out) == (1, "")
        assert err == "error: M must be at least 3\n"


def test_kernel_rejects_a_negative_radius_and_small_m():
    for flags in (("--radius", "-1"), ("--M", "2")):
        code, out, err = run_cli("kernel", *flags)
        assert code == 1
        assert out == ""
        assert "error:" in err
    assert "radius must be nonnegative" in run_cli("kernel", "--radius", "-1")[2]


@pytest.mark.parametrize("argv, message", [
    (("patterns", "--range", "-1"), "pattern range must be nonnegative"),
    (("percolation", "--ones", "--n", "-1"), "path length must be nonnegative"),
    (("cover", "--radius", "-1"), "radius must be nonnegative"),
])
def test_negative_counts_are_rejected(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert "error:" in err and message in err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "patterns.json"
    code, out, _ = run_cli("patterns", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["count"] == 41


def test_report_times_each_criterion_on_stderr(monkeypatch):
    def stub(number):
        def criterion(seed, jobs):
            return acceptance.CriterionResult(number, f"stub {number}", True,
                                              {"seed": seed, "jobs": jobs})
        return criterion

    monkeypatch.setattr(acceptance, "CRITERIA", [stub(1), stub(2)])
    code, out, err = run_cli("report", "--seed", "5", "--jobs", "1")
    assert code == 0
    # the document carries no time, so it is what the stubs alone give
    criteria = [{"number": n, "name": f"stub {n}", "passed": True,
                 "details": {"seed": 5, "jobs": 1}} for n in (1, 2)]
    assert out == json.dumps({"schema": "1", "command": "report", "seed": 5,
                              "criteria": criteria, "passed": True},
                             indent=2) + "\n"
    lines = err.splitlines()
    assert len(lines) == 2
    for n, line in zip((1, 2), lines):
        assert re.fullmatch(rf"criterion {n}: \d+\.\d\d s", line)


def test_cli_surface_is_pinned():
    # every subcommand's options in order: strings, dest, required and
    # choices (defaults are left out, so an absent flag may defer to the
    # library's own default)
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    surface = [[name, [[a.option_strings, a.dest, a.required, a.choices]
                       for a in p._actions]]
               for name, p in sub.choices.items()]
    assert hashlib.sha256(json.dumps(surface).encode()).hexdigest() == \
        "36a724597587e5e4aec285b010c86e73bbbedbd469abbd580c9a14e45d79695c"


@pytest.mark.parametrize("command, run, radius", [
    ("haar-test", "haar_window_test", 12),
    ("tau-test", "tau_invariance_test", 14),
    ("collisions", "collision_search", 12),
])
def test_experiment_defaults_are_the_config_defaults(command, run, radius,
                                                     monkeypatch):
    captured = []

    def fake(cfg, **kw):
        captured.append(cfg)
        return {"passed": True, "coordinates": []}

    monkeypatch.setattr(montecarlo, run, fake)
    assert run_cli(command)[0] == 0
    assert captured == [ExperimentConfig(seed=acceptance.DEFAULT_SEED,
                                         samples=10_000, sample_radius=radius)]


def test_json_haar_test_builds_no_csv_rows(monkeypatch):
    # the CSV rows read the coordinates; a JSON run never builds them
    monkeypatch.setattr(montecarlo, "haar_window_test",
                        lambda cfg, **kw: {"passed": True})
    code, out, _ = run_cli("haar-test")
    assert code == 0
    assert json.loads(out) == {"passed": True, "schema": "1"}
    with pytest.raises(KeyError):
        run_cli("haar-test", "--format", "csv")


@pytest.fixture
def z2_config(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "group": "z2", "alphabet": [0, 3],
        "values": [{"w": groups.format_element(Z2, s), "v": 1}
                   for s in groups.ball(Z2, 1)]}))
    return str(path)


@pytest.mark.parametrize("command", ["tau", "cover", "percolation"])
def test_config_of_another_group_exits_one(command, z2_config):
    code, out, err = run_cli(command, "--config", z2_config)
    assert code == 1
    assert out == ""
    assert err == "error: --config holds a z2 configuration, " \
                  "this command reads f2\n"


def test_config_of_the_command_group_runs(z2_config):
    doc = run_json("cover", "--group", "z2", "--config", z2_config)
    assert doc["config"]["group"] == doc["output"]["group"] == "z2"
