"""CLI behaviour: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexaform import gf, hexagon, invariants, linalg
from hexaform.cli import main
from hexaform.gf import GFElem
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import Triangulation, load, save
from oracles import forbid_hermite

SINGLE = Triangulation("one", ((0, 1, 2, 3, 4),))
DISCONNECTED = Triangulation("two", ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
GOLDEN = Path(__file__).parent / "golden"
S4_DOC = (b'{"name":"s4","vertices":6,"pentachora":[[1,2,3,4,5],[0,2,3,4,5],'
          b'[0,1,3,4,5],[0,1,2,4,5],[0,1,2,3,5],[0,1,2,3,4]],"signs":[1,-1,1,-1,1,-1]}')
GOLDEN_REPORTS = {
    "compare-s4": ("compare", "--manifold", "s4"),
    "compare-cp2": ("compare", "--manifold", "cp2"),
    "invariant-form-s4": ("invariant", "--manifold", "s4", "--mode", "form"),
    "invariant-form-cp2": ("invariant", "--manifold", "cp2", "--mode", "form"),
    "verify-cp2-random3-seed1": ("verify", "--manifold", "cp2", "--random", "3", "--seed", "1"),
    "verify-cp2-random6-seed2": ("verify", "--manifold", "cp2", "--random", "6", "--seed", "2"),
    "invariant-prob-s4-gf4-tensor":
        ("invariant", "--manifold", "s4", "--mode", "prob", "--p", "2", "--n", "2",
         "--m", "1", "--model", "tensor"),
    "invariant-prob-cp2-gf3":
        ("invariant", "--manifold", "cp2", "--mode", "prob", "--p", "3", "--m", "0",
         "--cap", "100000000000000"),
    "verify-prob-s4-moves":
        ("verify", "--manifold", "s4", "--mode", "prob", "--moves", "1-5,2-4,3-3",
         "--p", "2", "--m", "1"),
    "frobenius-p5-m0-check": ("frobenius", "--p", "5", "--m", "0", "--check"),
}


# any JSON value, and objects shaped like a triangulation file whose every
# field is well formed, except now and then
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(("name", "vertices", "pentachora", "signs")), inner),
    max_leaves=30)


def mostly(good):
    return st.sampled_from((good,) * 5 + (JSON_VALUES,)).flatmap(lambda s: s)


JSON_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {"name": mostly(st.text(max_size=3)),
     "vertices": mostly(st.integers(7, 9)),
     "pentachora": mostly(st.lists(
         mostly(st.lists(st.integers(0, 7), min_size=5, max_size=5, unique=True).map(sorted)),
         min_size=1, max_size=8))},
    optional={"signs": mostly(st.lists(st.sampled_from((1, -1)), max_size=8))})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def single_file(tmp_path):
    path = tmp_path / "one.json"
    save(SINGLE, str(path))
    return str(path)


class TestInvariant:
    def test_s4_form_rank0(self, capsys):
        doc = run_json(capsys, "invariant", "--manifold", "s4", "--mode", "form")
        assert doc["invariants"]["rank"] == 0
        assert doc["invariants"]["dim"] == 9

    def test_s4_prob_concentrated(self, capsys):
        doc = run_json(capsys, "invariant", "--manifold", "s4", "--mode", "prob",
                       "--p", "2", "--n", "1", "--m", "0")
        assert doc["distribution"]["entries"] == [{"count": "512", "value": "0"}]

    def test_cp2_form(self, capsys):
        doc = run_json(capsys, "invariant", "--manifold", "cp2", "--mode", "form")
        inv = doc["invariants"]
        assert inv["rank"] == 1
        assert inv["factors"] == [1]

    def test_file_input(self, capsys, single_file):
        # open manifolds carry the probability invariant but not the form
        doc = run_json(capsys, "invariant", "--file", single_file,
                       "--mode", "prob", "--p", "2")
        assert doc["manifold"] == "one"
        assert doc["distribution"]["total"] == "32"
        code, _, _ = run(capsys, "invariant", "--file", single_file)
        assert code == 1

    def test_out_flag(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "invariant", "--manifold", "s4",
                           "--out", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["command"] == "invariant"


class TestVerify:
    def test_chained_sequence(self, capsys):
        doc = run_json(capsys, "verify", "--manifold", "s4",
                       "--moves", "1-5,2-4,3-3")
        assert doc["all_equal"] is True
        assert [s["dim_shift"] for s in doc["steps"]] == [4, 1, 0]

    def test_random_moves_form(self, capsys):
        doc = run_json(capsys, "verify", "--manifold", "s4",
                       "--random", "4", "--seed", "9")
        assert doc["all_equal"] is True
        assert doc["seed"] == 9
        assert len(doc["steps"]) == 4

    def test_prob_mode(self, capsys):
        doc = run_json(capsys, "verify", "--manifold", "s4",
                       "--moves", "1-5,2-4", "--mode", "prob",
                       "--p", "2", "--n", "1", "--m", "1")
        assert doc["all_equal"] is True

    def test_empty_script_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--manifold", "s4")
        assert code == 1
        assert "verify" in err or "moves" in err

    def test_negative_random_count_is_usage_error(self, capsys):
        # ["random"] * -3 is empty: the request must not be dropped silently
        code, out, err = run(capsys, "verify", "--manifold", "s4",
                             "--moves", "1-5", "--random", "-3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--random" in err


class TestFrobenius:
    def test_quadratic(self, capsys):
        doc = run_json(capsys, "frobenius", "--p", "2", "--m", "0", "--check")
        assert doc["degree"] == 2
        assert doc["cocycle"] is True
        assert "x_jklm" in doc["polynomial"]

    def test_sextic(self, capsys):
        doc = run_json(capsys, "frobenius", "--p", "2", "--m1", "1", "--m2", "2")
        assert doc["degree"] == 6
        assert doc["mode"] == {"kind": "double", "m1": 1, "m2": 2}

    def test_reference_cubic(self, capsys):
        doc = run_json(capsys, "frobenius", "--reference-cubic")
        assert doc["degree"] == 3
        assert doc["cocycle"] is True
        assert doc["polynomial"].count("+") == 4

    def test_missing_p(self, capsys):
        code, _, _ = run(capsys, "frobenius", "--m", "1")
        assert code == 1

    @pytest.mark.parametrize("argv", [("--p", "3"), ("--p", "2"), ("--m", "1"),
                                      ("--m1", "0", "--m2", "1")],
                             ids=["p3", "p2", "m", "m1-m2"])
    def test_reference_cubic_takes_no_field_or_exponents(self, capsys, argv):
        code, out, err = run(capsys, "frobenius", "--reference-cubic", *argv)
        assert code == 1 and out == ""
        assert err == "error: --reference-cubic is over GF(2) and takes no --p or exponents\n"

    def test_conflicting_modes(self, capsys):
        code, _, _ = run(capsys, "frobenius", "--p", "2", "--m", "1", "--m1", "0",
                         "--m2", "1")
        assert code == 1

    @pytest.mark.parametrize("argv, flag", [
        (("--m", "10000000000"), "--m"),
        (("--m", "20000"), "--m"),
        (("--m", "14285"), "--m"),
        (("--m1", "14283", "--m2", "14284"), "--m1/--m2"),
    ], ids=["m-1e10", "m-20000", "m-14285", "m1-m2"])
    def test_unprintable_exponent_is_usage_error(self, capsys, argv, flag):
        # 2^14285 has 4301 digits, past the interpreter's printing limit
        code, out, err = run(capsys, "frobenius", "--p", "2", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} too large")

    def test_largest_printable_exponent_prints(self, capsys):
        doc = run_json(capsys, "frobenius", "--p", "2", "--m", "14284")
        assert doc["degree"] == 2 ** 14284 + 1
        checked = run_json(capsys, "frobenius", "--p", "2", "--m", "14284", "--check")
        assert checked == {**doc, "cocycle": True}

    @pytest.mark.parametrize("p, m", [(7, 0), (13, 1), (101, 3), (2, 1100)])
    def test_check_answers_for_any_frobenius_power(self, capsys, p, m):
        # (sum a_i x_i)^(p^m) over GF(p) is a form, checked in one step
        doc = run_json(capsys, "frobenius", "--p", str(p), "--m", str(m), "--check")
        assert doc["degree"] == p ** m + 1 and doc["cocycle"] is True

    @pytest.mark.parametrize("digits", [5000, 0], ids=["raised", "unlimited"])
    def test_exponent_limit_follows_the_interpreter(self, capsys, digits):
        # -X int_max_str_digits or PYTHONINTMAXSTRDIGITS, set in process
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digits)
        try:
            doc = run_json(capsys, "frobenius", "--p", "2", "--m", "14285")
        finally:
            sys.set_int_max_str_digits(before)
        assert doc["degree"] == 2 ** 14285 + 1

    @pytest.mark.parametrize("argv, message", [
        (("--p", "4", "--m", "20000"), "error: 4 is not prime\n"),
        (("--p", "2", "--m1", "-1", "--m2", "20000"), "error: exponents must be >= 0\n"),
    ], ids=["composite", "negative"])
    def test_other_faults_come_before_the_size(self, capsys, argv, message):
        code, out, err = run(capsys, "frobenius", *argv)
        assert (code, out, err) == (1, "", message)


class TestCompareAndManifold:
    def test_compare_s4(self, capsys):
        doc = run_json(capsys, "compare", "--manifold", "s4")
        assert doc["hexagon"]["rank"] == 0
        assert doc["cup"]["rank"] == 0

    def test_manifold_info(self, capsys):
        doc = run_json(capsys, "manifold", "--manifold", "cp2")
        assert doc["pentachora"] == 36
        assert doc["closed"] is True
        assert doc["euler_characteristic"] == 3

    def test_manifold_save(self, capsys, tmp_path):
        dest = tmp_path / "saved.json"
        code, _, _ = run(capsys, "manifold", "--manifold", "s4", "--save", str(dest))
        assert code == 0
        t = load(str(dest))
        assert len(t.pentachora) == 6
        assert t.signs is not None


class TestExitCodes:
    def test_usage_no_manifold(self, capsys):
        code, _, err = run(capsys, "invariant")
        assert code == 1
        assert "manifold" in err

    def test_usage_both_sources(self, capsys, single_file):
        code, _, _ = run(capsys, "invariant", "--manifold", "s4",
                         "--file", single_file)
        assert code == 1

    def test_orientation_error(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        save(DISCONNECTED, str(path))
        code, _, err = run(capsys, "invariant", "--file", str(path))
        assert code == 2
        assert "orientation" in err

    @pytest.mark.parametrize("argv", [
        ("invariant", "--mode", "prob", "--p", "3"),
        ("compare",),
    ], ids=["prob", "compare"])
    def test_incoherent_signs(self, capsys, tmp_path, argv):
        s4 = builtin_manifold("s4")
        path = tmp_path / "flipped.json"
        path.write_text(json.dumps({
            "name": "s4", "vertices": 6, "pentachora": [list(u) for u in s4.pentachora],
            "signs": [-s4.signs[0], *s4.signs[1:]]}))
        code, out, err = run(capsys, *argv, "--file", str(path))
        assert code == 2 and out == ""
        assert "coherent" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "invariant", "--manifold", "s4", "--mode",
                           "prob", "--p", "2", "--cap", "100")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("argv", [
        ("invariant", "--manifold", "s4", "--mode", "prob", "--p", "2"),
        ("verify", "--manifold", "s4", "--mode", "prob", "--p", "2", "--random", "1",
         "--seed", "1"),
    ], ids=["invariant", "verify"])
    def test_negative_cap_flag_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--cap", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "-1" in err and "cap exceeded" not in err

    def test_negative_cap_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HEXAFORM_CAP", "-7")
        code, out, err = run(capsys, "invariant", "--manifold", "s4", "--mode", "prob",
                             "--p", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "HEXAFORM_CAP" in err and "-7" in err

    def test_cp2_answers_only_under_an_explicit_cap(self, capsys):
        argv = ("invariant", "--manifold", "cp2", "--mode", "prob", "--p", "2")
        code, _, err = run(capsys, *argv)
        assert code == 3 and "2^28 colorings" in err
        doc = run_json(capsys, *argv, "--cap", str(2 ** 28))
        assert doc["distribution"]["entries"] == [{"value": "0", "count": str(2 ** 27)},
                                                  {"value": "1", "count": str(2 ** 27)}]

    def test_no_applicable_move(self, capsys, single_file):
        code, _, err = run(capsys, "verify", "--file", single_file,
                           "--moves", "3-3", "--mode", "prob", "--p", "2")
        assert code == 4
        assert "3-3" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "vertices": 5, "pentachora": [[0,1,1,3,4]]}')
        code, _, err = run(capsys, "invariant", "--file", str(path))
        assert code == 5
        assert "malformed" in err

    @pytest.mark.parametrize("doc", [
        b'{"name":"m","vertices":6,"pentachora":5}',
        b'{"name":"m","vertices":"6","pentachora":[[0,1,2,3,4]]}',
        b'{"name":"m","vertices":6,"pentachora":[[0,1,2,3,4]],"signs":5}',
        b'\xff\xfe{}',
        b'[' * 100_000 + b']' * 100_000,
        b'{"name":"m","vertices":6,"pentachora":[]}',
        b'{"name":"m","vertices":5,"pentachora":[[0,1,2,3,4],[0,1,2,3,4]]}',
        S4_DOC.replace(b"[0,1,2,3,4]", b"[false,true,2,3,4]"),
        S4_DOC.replace(b'"signs":[1,', b'"signs":[true,'),
        b'{"name":"m","vertices":' + b'9' * 5001 + b',"pentachora":[[0,1,2,3,4]]}',
    ], ids=["pentachora-int", "vertices-str", "signs-int", "not-utf8", "deep-nesting",
            "pentachora-empty", "duplicate-pentachoron", "vertex-bool", "sign-bool",
            "vertices-5001-digits"])
    def test_malformed_documents(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_bytes(doc)
        code, _, err = run(capsys, "manifold", "--file", str(path))
        assert code == 5
        assert "malformed" in err and "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "invariant", "--file", str(tmp_path / "no.json"))
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("manifold", "--file"),
        ("invariant", "--manifold", "s4", "--out"),
        ("manifold", "--manifold", "s4", "--save"),
    ], ids=["file", "out", "save"])
    def test_directory_as_file(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("invariant", "--manifold", "s4", "--mode", "prob"),
        ("verify", "--manifold", "s4", "--mode", "prob", "--random", "1", "--seed", "1"),
    ], ids=["invariant", "verify"])
    def test_cap_refuses_before_building_the_field(self, capsys, monkeypatch, argv):
        # the refusal needs only the GF(p) space, not a degree-21 modulus
        # found by trial division; 2^(21 + 2) is under the transform bound,
        # so the coloring cap is what refuses
        irreducible = gf._irreducible

        def degree_one_only(m, p):
            if len(m) > 2:
                raise AssertionError("GF(p^n) built for a refusal")
            return irreducible(m, p)
        monkeypatch.setattr(gf, "_irreducible", degree_one_only)
        code, out, err = run(capsys, *argv, "--p", "2", "--n", "21")
        assert code == 3 and out == ""
        assert err.startswith("cap exceeded: enumeration needs 2^")

    @pytest.mark.parametrize("argv", [
        ("--p", "2", "--n", "6", "--model", "tensor", "--cap", str(10 ** 56)),
        ("--p", str(2 ** 61 - 1), "--cap", str(10 ** 189)),
        ("--p", "1000003", "--cap", str(10 ** 189)),
        ("--p", "2", "--n", "100000"),
        ("--p", "2", "--n", "1000000000"),
    ], ids=["gf64-tensor", "p-2^61-1", "p-1000003", "n-100000", "n-1e9"])
    def test_huge_prob_request_refused_before_the_kernel(self, capsys, monkeypatch, argv):
        # p^(k+2) past the transform bound, k = n or n^2: named, never computed
        def no_kernel(*_):
            raise AssertionError("kernel solved for a refusal")
        monkeypatch.setattr(invariants, "permitted_space", no_kernel)
        code, out, err = run(capsys, "invariant", "--manifold", "s4", "--mode", "prob", *argv)
        assert code == 3 and out == ""
        p, n = argv[1], int(argv[3]) if argv[2] == "--n" else 1
        k = n * n if "tensor" in argv else n
        assert err == (f"cap exceeded: the value counts need {p}^{k + 2} transform steps, "
                       f"bound is {invariants.TRANSFORM_BOUND}\n")

    def test_cp2_over_gf211_answers_under_a_raised_cap(self, capsys):
        # 211^3 is under the transform bound
        doc = run_json(capsys, "invariant", "--manifold", "cp2", "--mode", "prob",
                       "--p", "211", "--cap", str(211 ** 28))
        counts = [int(e["count"]) for e in doc["distribution"]["entries"]]
        assert sum(counts) == int(doc["distribution"]["total"]) == 211 ** 28

    @given(doc=JSON_DOCUMENTS)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_documents(self, capsys, tmp_path, doc):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(doc))
        for command in ("manifold", "compare"):
            code, _, err = run(capsys, command, "--file", str(path))
            assert code in (0, 1, 2, 5), (command, doc, err)

    @pytest.mark.parametrize("argv", [
        ("frobenius", "--p", "4"),
        ("frobenius", "--p", "1"),
        ("frobenius", "--p", "0"),
        ("frobenius", "--p", "-3"),
        ("invariant", "--manifold", "s4", "--mode", "prob", "--p", "4"),
        ("invariant", "--manifold", "s4", "--mode", "prob", "--n", "0"),
    ], ids=["frobenius-p4", "frobenius-p1", "frobenius-p0", "frobenius-p-3",
            "prob-p4", "prob-n0"])
    def test_impossible_field(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv, expected", [
        (("invariant", "--manifold", "s4", "--mode", "prob"), 3),
        (("frobenius", "--m", "0"), 0),
    ], ids=["invariant", "frobenius"])
    def test_large_prime_answers_at_once(self, capsys, argv, expected):
        # trial division up to sqrt(2^61 - 1) would not finish
        code, _, _ = run(capsys, *argv, "--p", str(2 ** 61 - 1))
        assert code == expected
        code, out, err = run(capsys, *argv, "--p", str(gf.PRIME_BOUND + 2))
        assert code == 1 and out == ""
        assert err == f"error: primality is decided only below {gf.PRIME_BOUND}\n"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        configs = [
            ("invariant", "--manifold", "cp2", "--mode", "form"),
            ("verify", "--manifold", "s4", "--random", "3", "--seed", "42"),
            ("invariant", "--manifold", "s4", "--mode", "prob",
             "--p", "2", "--n", "2", "--m", "1", "--model", "tensor"),
            ("compare", "--manifold", "cp2"),
        ]
        for argv in configs:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second, argv

    @pytest.mark.parametrize("name, argv", GOLDEN_REPORTS.items())
    def test_golden_report(self, capsys, name, argv):
        # reports are stable API: any change to a byte is a change to the output
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()

    @pytest.mark.parametrize("name", ["invariant-form-cp2", "compare-cp2",
                                      "verify-cp2-random3-seed1", "invariant-prob-cp2-gf3"])
    def test_golden_report_without_dense_rows_or_fractions(self, capsys, monkeypatch, name):
        # the kernels run on the sparse rows, and signatures and
        # discriminants come from fraction-free minors
        def refuse(*args):
            raise AssertionError("dense constraint rows or Fraction arithmetic used")
        monkeypatch.setattr(hexagon.ConstraintSystem, "rows", property(refuse))
        monkeypatch.setattr(linalg, "Fraction", refuse)
        code, out, err = run(capsys, *GOLDEN_REPORTS[name])
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()

    def test_relabel_robustness(self, capsys, tmp_path):
        # renumbering the vertices must not change the invariants
        from hexaform.manifolds import builtin_manifold
        from hexaform.triangulation import relabel
        t = builtin_manifold("cp2")
        shifted = relabel(t, {i: i + 20 for i in range(9)})
        path = tmp_path / "shifted.json"
        save(shifted, str(path))
        a = run_json(capsys, "invariant", "--manifold", "cp2")
        b = run_json(capsys, "invariant", "--file", str(path))
        for key in ("rank", "signature", "det", "parity", "factors"):
            assert a["invariants"][key] == b["invariants"][key]


def test_cli_builds_no_field_element(capsys, monkeypatch):
    # over GF(p^n) the permitted basis is a list of residues mod p, read as
    # such by the Gram, the value distribution and the cocycle check
    def refuse(self, field, code):
        raise AssertionError("GFElem built")
    monkeypatch.setattr(GFElem, "__init__", refuse)
    for argv in [
        ("invariant", "--manifold", "s4", "--mode", "prob", "--p", "2"),
        ("invariant", "--manifold", "s4", "--mode", "prob", "--p", "2", "--n", "2", "--m", "1"),
        ("invariant", "--manifold", "s4", "--mode", "prob", "--p", "2", "--n", "2", "--m", "1",
         "--model", "tensor"),
        ("verify", "--manifold", "s4", "--mode", "prob", "--moves", "1-5,2-4", "--p", "3"),
        ("frobenius", "--p", "2", "--m", "1", "--check"),
        ("compare", "--manifold", "s4"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_cli_reduces_no_basis_to_hermite_form(capsys, monkeypatch):
    # every report is a congruence invariant, so the Z kernels stay as the
    # sparse elimination returns them
    forbid_hermite(monkeypatch)
    for name, argv in [
        ("invariant-form-cp2", ("invariant", "--manifold", "cp2", "--mode", "form")),
        ("compare-cp2", ("compare", "--manifold", "cp2")),
        ("verify-cp2-random3-seed1", ("verify", "--manifold", "cp2", "--random", "3",
                                      "--seed", "1")),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


def test_import_leaves_numpy_out():
    # numpy backs only the GF lookup tables, imported when one is built; the
    # commands run with it blocked, so it is no runtime dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = (
        "import sys, hexaform.cli\n"
        "print('numpy' in sys.modules)\n"
        "sys.modules['numpy'] = None\n"
        "for argv in [['invariant', '--manifold', 's4', '--mode', 'prob', '--p', '2',\n"
        "              '--n', '2', '--m', '1'],\n"
        "             ['frobenius', '--p', '3', '--m', '1', '--check']]:\n"
        "    assert hexaform.cli.main(argv) == 0, argv\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.startswith("False\n")
    assert '"distribution": {' in out and '"cocycle": true' in out
