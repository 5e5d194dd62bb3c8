import json
import os
import subprocess
import sys
import time

import pytest

from bsinf.cli import _normal_form_degree, _realization_degree, main
from bsinf.invariant import (
    KInvariant,
    NormalFormDescriptor,
    canonical_descriptor,
    emit_normal_form,
    k_at_infinity,
    realize_tuple,
)
from bsinf.parsing import MAX_TEXT, parse_poly

from conftest import even_sum_tuples


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_text(capsys):
    code, out, _ = run(capsys, "invariant", "y^2 - x^3")
    assert code == 0
    assert "k = (1, 1)" in out
    assert "[0 : 1]" in out
    assert "(0, 1) -> 1" in out and "(0, -1) -> 1" in out


def test_invariant_bounded(capsys):
    code, out, _ = run(capsys, "invariant", "x^2 + y^2 - 1")
    assert code == 0
    assert "bounded curve; k = ()" in out


def test_invariant_parse_error(capsys):
    code, out, err = run(capsys, "invariant", "x + ")
    assert code == 1
    assert not out
    assert "offset 4" in err


def test_invariant_quiet(capsys):
    code, out, _ = run(capsys, "invariant", "--quiet", "y^2 - x^3")
    assert code == 0 and out.strip() == "k = (1, 1)"


def test_equiv_exit_codes(capsys):
    assert run(capsys, "equiv", "y^2 - x^3", "y^2 - x^5")[0] == 0
    code, out, _ = run(capsys, "equiv", "y^2 - x^3", "(y-x)^2 - (y+x)")
    assert code == 2 and "NOT EQUIVALENT" in out
    assert run(capsys, "equiv", "y^2 - x^3", "y^2 - x^3")[0] == 0


def test_usage_errors_exit_1_not_2(capsys):
    # 2 means NOT EQUIVALENT, so a script must never see it for bad arguments
    for argv in (["equiv", "y - x"], ["equiv", "--bogus", "a", "b"],
                 ["check", "--radius-max", "abc", "y - x"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1, argv
        assert not captured.out and captured.err.startswith("usage: bsinf"), argv
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--help"])
    assert exc.value.code == 0 and "usage: bsinf equiv" in capsys.readouterr().out


def test_quiet_belongs_to_invariant_alone(capsys):
    for argv in (["equiv", "--quiet", "y - x", "y + x"], ["realize", "--quiet", "1,3"],
                 ["normal-form", "--quiet", "1,1"], ["check", "--quiet", "y - x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "unrecognized arguments: --quiet" in capsys.readouterr().err


def test_normal_form_tuple(capsys):
    code, out, _ = run(capsys, "normal-form", "1,1")
    assert code == 0
    assert "((1, 0))" in out
    assert "y - x - 1" in out


def test_normal_form_curve(capsys):
    code, out, _ = run(capsys, "normal-form", "(y-x)^2 - (y+x)")
    assert code == 0
    assert "((0, 1))" in out
    assert str(parse_poly("(y-x)^2 - (y+x)")) in out


def test_normal_form_odd_tuple_exit_3(capsys):
    code, _, err = run(capsys, "normal-form", "1")
    assert code == 3 and "not realizable" in err


def test_normal_form_tuple_sorted_with_warning(capsys):
    code, out, err = run(capsys, "normal-form", "3,1")
    assert code == 0
    assert "reordered" in err
    assert "((1, 1))" in out


def test_realize(capsys):
    code, out, _ = run(capsys, "realize", "1,3")
    assert code == 0
    assert "verified: k = (1, 3)" in out
    code, out, _ = run(capsys, "realize", "2")
    assert code == 0 and "verified: k = (2)" in out
    assert run(capsys, "realize", "1,1,1")[0] == 3


@pytest.mark.parametrize("argv", [["normal-form", "100000"], ["realize", "100000"],
                                  ["realize", "1,99999"]],
                         ids=["normal-form", "realize", "realize-pair"])
def test_huge_tuples_fail_fast(capsys, argv):
    # their curves would have degree above 89 (C(91, 2) = 4095 <= MAX_TERMS
    # < C(92, 2)), so possibly more terms than an input curve may have
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_tuples_of_degree_89_are_built(capsys):
    code, out, _ = run(capsys, "normal-form", "--json", "88")
    assert code == 0 and json.loads(out)["k"] == [88]
    code, out, _ = run(capsys, "realize", "--json", "44,44")
    assert code == 0 and json.loads(out)["verified"]
    # degree 89, the largest accepted: 3105 terms, within the parser's bound
    code, out, _ = run(capsys, "normal-form", "--json", "1,89")
    assert code == 0 and json.loads(out)["k"] == [1, 89]
    assert len(parse_poly(json.loads(out)["normal_form"]).terms) == 3105


@pytest.mark.parametrize("argv, message", [
    (["normal-form", "\u0662"], "error: tuple entries must be positive integers, got '\u0662'"),
    (["realize", "1,\u0663"], "error: tuple entries must be positive integers, got '\u0663'"),
    (["normal-form", "\u00b2"], "syntax error: unexpected character '\u00b2' (at offset 0)"),
], ids=["arabic-indic-tuple", "arabic-indic-entry", "superscript"])
def test_tuple_entries_are_ascii_digits(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.strip().splitlines() == [message]


@pytest.mark.parametrize("argv, message", [
    (["realize", "1,,1"], "error: empty tuple entry in '1,,1'"),
    (["realize", "1, ,1"], "error: empty tuple entry in '1, ,1'"),
    (["realize", ",2"], "error: empty tuple entry in ',2'"),
    (["normal-form", "2,"], "error: empty tuple entry in '2,'"),
    (["realize", ""], "error: empty tuple"),
    (["realize", ","], "error: empty tuple"),
], ids=["inner", "inner-blank", "leading", "trailing", "empty", "comma"])
def test_empty_tuple_entries_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.strip().splitlines() == [message]


def test_blanks_around_tuple_entries_are_accepted(capsys):
    assert run(capsys, "realize", " 2")[:2] == run(capsys, "realize", "2")[:2]
    assert run(capsys, "normal-form", " 1 , 1 ")[:2] == run(capsys, "normal-form", "1,1")[:2]


def test_refused_degree_is_the_degree_of_the_built_curve():
    for t in even_sum_tuples(4, 4):
        eta = KInvariant(t)
        assert emit_normal_form(canonical_descriptor(eta)).degree == _normal_form_degree(eta)
        assert realize_tuple(eta).degree == _realization_degree(eta)


def test_check_agrees(capsys):
    code, out, _ = run(capsys, "check", "y^2 - x^3")
    assert code == 0 and "AGREE" in out
    code, out, _ = run(capsys, "check", "x^2 + y^2 - 1")
    assert code == 0 and "AGREE" in out
    code, out, _ = run(capsys, "check", "((y-x)-1)*((y-x)^2-(y+x))")
    assert code == 0 and "(1, 3)" in out


def test_check_radius_beyond_float_range_exits_1(capsys):
    # 2^1100 overflows a float: a one-line error, not an OverflowError
    code, out, err = run(capsys, "check", "--radius-max", "1100", "y^2 - x^3")
    assert code == 1 and not out
    assert err.startswith("error:") and "1024" in err
    assert len(err.strip().splitlines()) == 1


def test_check_reduces_repeated_factors(capsys):
    # the doubled line must not read as a persistent tangency to the oracle
    code, out, _ = run(capsys, "check", "(y-x)^2*(y+x)")
    assert code == 0 and "AGREE" in out and "(1, 1, 1, 1)" in out


def test_json_report_round_trip(capsys):
    for curve in ["y^2 - x^3", "((y-x) - 1)*((y-x)^2 - (y+x))", "x^2 + y^2 - 1"]:
        code, out, _ = run(capsys, "invariant", "--json", curve)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "bsinf/1"
        report = k_at_infinity(parse_poly(curve))
        assert KInvariant(tuple(payload["k"])) == report.k
        rebuilt = NormalFormDescriptor(tuple(tuple(p) for p in payload["descriptor"]))
        assert rebuilt == report.descriptor
        assert payload["bounded"] == report.bounded
        # zero-count sides are omitted; present sides reconstruct the records
        for entry, rec in zip(payload["points"], report.records):
            assert tuple(entry["point"]) == rec.point.rep
            assert ("plus" in entry) == (rec.plus is not None)
            assert ("minus" in entry) == (rec.minus is not None)
        # the reported normal form has the same invariant
        assert k_at_infinity(parse_poly(payload["normal_form"])).k == report.k


def test_file_reference(tmp_path, capsys):
    target = tmp_path / "curve.txt"
    target.write_text("y^2 - x^3\n", encoding="utf-8")
    code, out, _ = run(capsys, "invariant", "--quiet", f"@{target}")
    assert code == 0 and "k = (1, 1)" in out
    code, _, err = run(capsys, "invariant", f"@{tmp_path}/missing.txt")
    assert code == 1


def test_file_over_the_text_limit_exits_1(tmp_path, capsys):
    # 1 + 1 + ... + 1 + x: the ones merge, so no term bound would stop it
    target = tmp_path / "long.txt"
    target.write_text("1+" * (MAX_TEXT // 2) + "x", encoding="utf-8")
    code, out, err = run(capsys, "invariant", "--quiet", f"@{target}")
    assert code == 1 and not out
    assert len(err.splitlines()) == 1
    assert f"at offset {MAX_TEXT}" in err


def test_epsilon_is_no_longer_an_option():
    # the uncertified count at a chosen radius is retired: a usage error
    proc = run_python("-m", "bsinf", "invariant", "--epsilon", "1/64", "y - x")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("usage: bsinf")
    assert "unrecognized arguments: --epsilon" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_emit_samples_csv(tmp_path, capsys):
    target = tmp_path / "samples.csv"
    code, out, _ = run(capsys, "check", "--emit-samples", str(target), "y^2 - x^3")
    assert code == 0
    lines = target.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "radius,angle,x,y"
    assert len(lines) > 10
    radius, angle, px, py = map(float, lines[1].split(","))
    assert abs(px * px + py * py - radius * radius) < 1e-6 * radius * radius


def test_irrational_direction_reported(capsys):
    # the second is refused at its factor y^2 - 2*x^2, after the factor split
    for text in ["y^2 - 2*x^2", "(y - x)*(y^2 - 2*x^2)"]:
        code, _, err = run(capsys, "invariant", "--json", text)
        assert code == 1 and "irrational" in err.lower(), text
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err


def test_check_disagreement_exit_4(capsys, monkeypatch):
    import bsinf.oracle as oracle_mod
    from bsinf.oracle import OracleReport

    def bogus_oracle(f, radius_max=20):
        return OracleReport(directions=(((1.0, 0.0), 7),), stable=True,
                            radii_used=(16.0,), samples=())

    # `check` imports oracle_k from bsinf.oracle when it runs
    monkeypatch.setattr(oracle_mod, "oracle_k", bogus_oracle)
    code, out, _ = run(capsys, "check", "y^2 - x^3")
    assert code == 4 and "DISAGREE" in out


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_exact_commands_import_neither_sympy_nor_numpy():
    code = """if True:
        import json, sys
        from bsinf.cli import main
        # (y - x - 1)*(y + x)*(x - 2), expanded
        cubic = "x*y^2 - x^3 - 2*y^2 - x*y + x^2 + 2*y + 2*x"
        # (x - 1)*(y - 2)*(x + y), expanded
        lines = "x^2*y + x*y^2 - 2*x^2 - 3*x*y - y^2 + 2*x + 2*y"
        for argv, code in ((["realize", "1,3"], 0), (["normal-form", "--json", "1,1,2,2"], 0),
                           (["invariant", "(y - x - 1)*(y + x)"], 0),
                           # expanded text, factored by the package itself
                           (["invariant", cubic], 0), (["invariant", "y^2 - x^3"], 0),
                           (["invariant", "x^2 - 2*x*y + y^2 - 1"], 0),
                           (["equiv", cubic, lines], 0),
                           # a degenerate point: the segment of its chart and its resultant
                           (["invariant", "(y^2 - x^3)^2 - x^5"], 0),
                           # an irrational direction is refused
                           (["invariant", "y^2 - 2*x^2"], 1),
                           (["invariant", "(y - x)*(y^2 - 2*x^2)"], 1)):
            assert main(argv) == code, argv
        unused = ("sympy", "numpy", "bsinf.oracle", "dataclasses")
        print(json.dumps(sorted(m for m in unused if m in sys.modules)))
    """
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_oracle_names_load_on_first_use():
    code = """if True:
        import sys
        import bsinf
        assert "bsinf.oracle" not in sys.modules
        assert {"oracle_k", "OracleReport"} <= set(dir(bsinf))
        assert bsinf.oracle_k is bsinf.oracle.oracle_k
        assert bsinf.OracleReport is bsinf.oracle.OracleReport
        assert "numpy" not in sys.modules
        try:
            bsinf.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute")
        namespace = {}
        exec("from bsinf import *", namespace)
        assert set(bsinf.__all__) <= set(namespace)
        assert namespace["oracle_k"] is bsinf.oracle.oracle_k
        print("ok")
    """
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_check_runs_in_a_fresh_process():
    proc = run_python("-m", "bsinf", "check", "y^2 - x^3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("AGREE")
