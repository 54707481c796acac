import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from vermakit import cli, deform
from vermakit.chevalley import structure_constants
from vermakit.cli import main
from vermakit.rootsys import Weight, parse_type
from vermakit.uea import EnvelopingAlgebra
from vermakit.weightmod import MAX_BASIS_LABELS, VermaLikeModule, _verma_labels

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_classify_singular_starstar(capsys):
    status, out, _ = run(capsys, "classify", "--weight", "1/2,-1", "--json")
    assert status == 0
    body = json.loads(out)
    assert body["schema"] == 1
    assert body["case"] == "singular"
    assert body["certificates"][-1]["kind"] == "condition_star_star"
    assert body["reverified"] is True


def test_classify_negative_leading_weight(capsys):
    status, out, _ = run(capsys, "classify", "--weight", "-2,3", "--json")
    assert status == 0
    body = json.loads(out)
    assert body["case"] == "regular_integral"
    assert body["certificates"][-1]["mu"] == ["0", "2"]


def test_classify_byte_stable(capsys):
    _, out1, _ = run(capsys, "classify", "--weight", "2,-1", "--json")
    _, out2, _ = run(capsys, "classify", "--weight", "2,-1", "--json")
    assert out1 == out2


def test_classify_precondition_status(capsys):
    status, _, err = run(capsys, "classify", "--weight", "1,1")
    assert status == 3
    assert "dominant integral" in err


def test_parse_error_status(capsys):
    status, _, _ = run(capsys, "classify", "--weight", "1/x,0")
    assert status == 2
    status, _, _ = run(capsys, "classify")
    assert status == 2
    status, _, _ = run(capsys, "classify", "--weight", "1,2,3")
    assert status == 2


def test_primes_verb(capsys):
    status, out, _ = run(capsys, "primes", "--type", "A2", "--json")
    assert status == 0
    assert json.loads(out)["bad_primes"] == [2, 3]
    status, out, _ = run(capsys, "primes", "--type", "B2")
    assert status == 0
    assert "[2]" in out


def test_character_verb(capsys):
    status, out, _ = run(capsys, "character", "--weight", "1,0",
                         "--depth", "3", "--parabolic", "0,1", "--json")
    assert status == 0
    body = json.loads(out)
    assert sum(entry["dim"] for entry in body["character"]) == 3


def test_character_bad_parabolic_weight(capsys):
    status, _, _ = run(capsys, "character", "--weight", "1/2,0",
                       "--depth", "3", "--parabolic", "0")
    assert status == 3


def test_verify_all_suites(capsys):
    status, out, _ = run(capsys, "verify", "--suite", "all", "--depth", "4",
                         "--json")
    assert status == 0
    body = json.loads(out)
    assert body["pass"] is True
    assert len(body["results"]) == 9


def test_verify_single_suite(capsys):
    status, out, _ = run(capsys, "verify", "--suite", "reflection")
    assert status == 0
    assert "reflection" in out


def test_iwasawa_suite_passes_at_the_largest_verify_depth(capsys):
    # the deformation depth bound must not refuse any depth verify accepts
    rs = parse_type("A2")
    depth = 1
    while _verma_labels(rs, depth + 1, MAX_BASIS_LABELS) <= MAX_BASIS_LABELS:
        depth += 1
    status, out, _ = run(capsys, "verify", "--suite", "iwasawa", "--depth",
                         str(depth), "--json")
    assert status == 0 and json.loads(out)["pass"] is True
    status, _, err = run(capsys, "verify", "--suite", "iwasawa", "--depth",
                         str(depth + 1))
    assert status == 3 and "over the budget" in err


def test_phi_check_verb(capsys):
    status, out, _ = run(capsys, "phi-check", "--weight", "2,1/3",
                         "--parabolic", "0", "--c", "-3", "--depth", "3",
                         "--json")
    assert status == 0
    body = json.loads(out)
    assert all(body["checks"].values())


def test_phi_check_inadmissible_c(capsys):
    status, _, err = run(capsys, "phi-check", "--weight", "2,1/3",
                         "--parabolic", "0", "--c", "1/5")
    assert status == 3
    assert "admissible" in err


@pytest.mark.parametrize("prime", ["0", "1", "4", "-3"])
def test_phi_check_rejects_non_odd_prime(prime):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "vermakit.cli", "phi-check", "--weight", "2,1/3",
         "--parabolic", "0", "--c", "-3", "--prime", prime],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=5)
    assert proc.returncode == 3
    assert "p must be an odd prime" in proc.stderr


@pytest.mark.parametrize("prime", ["0", "1", "4", "-3"])
def test_classify_rejects_non_odd_prime(capsys, prime):
    status, _, err = run(capsys, "classify", "--weight", "1/2,-1",
                         "--prime", prime)
    assert status == 3
    assert "p must be an odd prime" in err


def test_classify_prime_two_gets_odd_prime_message(capsys):
    status, _, err = run(capsys, "classify", "--weight", "1/2,-1",
                         "--prime", "2")
    assert status == 3
    assert "p must be an odd prime" in err


def test_classify_at_a_61_bit_prime_ends():
    # 2^61 - 1: trial division to its square root never ended
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "vermakit.cli", "classify", "--weight", "1/2,-1",
         "--prime", str(2 ** 61 - 1), "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["input"]["p"] == 2 ** 61 - 1


def test_classify_refuses_a_prime_past_the_exact_bound(capsys):
    status, _, err = run(capsys, "classify", "--weight", "1/2,-1",
                         "--prime", str(2 ** 89 - 1))
    assert status == 3
    assert err == (f"error: p must be below 3317044064679887385961981, "
                   f"got {2 ** 89 - 1}\n")


PHI_A2 = ["phi-check", "--weight", "2,1/3", "--parabolic", "0", "--c", "-3"]

_TOO_LARGE = "is too large: numerators and denominators have at most 4300 digits"
_LONG_RUN = "1" + "0" * 4300  # a run of 4,301 digits, no exponent


@pytest.mark.parametrize("argv,message", [
    (["classify", "--weight", "1e9999999,1/2"],
     f"bad weight '1e9999999,1/2': weight coordinate 0 (9 characters) {_TOO_LARGE}"),
    (["classify", "--weight", "1e100000,1/2"],
     f"bad weight '1e100000,1/2': weight coordinate 0 (8 characters) {_TOO_LARGE}"),
    (["character", "--weight", "1e9999999,1", "--depth", "2"],
     f"bad weight '1e9999999,1': weight coordinate 0 (9 characters) {_TOO_LARGE}"),
    (PHI_A2[:-1] + ["1e100000"],
     f"bad scalar vector '1e100000': c coordinate 1 (8 characters) {_TOO_LARGE}"),
    (["classify", "--weight", f"{_LONG_RUN},1/2"],
     f"bad weight (4305 characters): weight coordinate 0 (4301 characters) "
     f"{_TOO_LARGE}")],
    ids=["classify", "classify-1e100000", "character", "phi-check-c",
         "classify-digit-run"])
def test_an_oversized_coordinate_exits_2_before_any_work(capsys, argv, message):
    # these ran 7.7-12 s and exited 3, or did not end in 120 s
    start = time.perf_counter()
    status, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--weight", "1/2," + "7" * 100_000],
    ["character", "--weight", "1" * 100_000 + ",1", "--parabolic", "0"],
    PHI_A2[:-1] + ["1/" + "3" * 100_000]], ids=["classify", "character", "phi-check-c"])
def test_a_100000_digit_coordinate_is_named_not_echoed(capsys, argv):
    # the literal was echoed twice: by parse_rational and by the CLI
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert len(err.encode()) < 300
    assert "coordinate" in err and "characters) is too large" in err


@pytest.mark.parametrize("argv,message", [
    (["classify", "--weight", "x" * 100_000 + ",1/2"],
     "weight coordinate 0 (100000 characters) is not a rational literal"),
    (["classify", "--weight", "1/2,-1", "--depth", "9" * 5_000],
     "argument --depth: invalid int value: (5000 characters)"),
    (["classify", "--type", "Q" * 50_000, "--weight", "1,1"],
     "error: bad root system label (50000 characters)"),
    (["classify", "--weight", "x,1/2"],
     "error: bad weight 'x,1/2': Invalid literal for Fraction: 'x'"),
    (["classify", "--weight", "1/2,-1", "--depth", "abc"],
     "argument --depth: invalid int value: 'abc'"),
    (["classify", "--type", "QQ", "--weight", "1,1"],
     "error: bad root system label 'QQ'")],
    ids=["invalid-literal", "int-option", "type-label",
         "short-invalid-literal", "short-int-option", "short-type-label"])
def test_an_invalid_argument_is_quoted_only_when_short(capsys, argv, message):
    # the long ones wrote 100,072, 5,200 and 50,032 bytes: Fraction,
    # argparse and parse_type quoted the whole literal
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert len(err.encode()) < 1000
    assert err.endswith(f"{message}\n")


_NINES = "9" * 4_000  # an int option argparse accepts (at most 4,300 digits)


@pytest.mark.parametrize("argv,status,message", [
    (["classify", "--weight", "1/2,-1", "--depth", _NINES], 3,
     "the Verma module to depth (4000 characters) has at least 10100 basis "
     "labels, over the budget of 10000"),
    (["classify", "--weight", "1/2,-1", "--prime", _NINES], 3,
     "p must be below 3317044064679887385961981, got (4000 characters)"),
    (["classify", "--type", "A" + _NINES, "--weight", "1/2,-1"], 2,
     "unsupported root system type A(4000 characters)"),
    (["character", "--weight", "1,1", "--parabolic", _NINES], 2,
     "bad simple-root subset (4000 characters): simple-root index "
     "(4000 characters) is not in 0..1 (rank 2)"),
    (PHI_A2 + ["--samples", _NINES], 3,
     "samples must be at most 10000, got (4000 characters)"),
    (["classify", "--weight", "1/2,-1", "--depth", "100000"], 3,
     "the Verma module to depth 100000 has at least 10100 basis labels, "
     "over the budget of 10000"),
    (["classify", "--weight", "1/2,-1", "--prime", "9"], 3,
     "p must be an odd prime, got 9"),
    (["classify", "--type", "A9", "--weight", "1/2,-1"], 2,
     "unsupported root system type A9"),
    (["character", "--weight", "1,1", "--parabolic", "5"], 2,
     "bad simple-root subset '5': simple-root index 5 is not in 0..1 (rank 2)"),
    (PHI_A2 + ["--samples", "100000"], 3,
     "samples must be at most 10000, got 100000")],
    ids=["depth", "prime", "type", "parabolic", "samples", "short-depth",
         "short-prime", "short-type", "short-parabolic", "short-samples"])
def test_an_int_argument_is_echoed_only_when_short(capsys, argv, status, message):
    # the long ones wrote 4,038-4,092 bytes: each message echoed the whole int
    got = run(capsys, *argv)
    assert got == (status, "", f"error: {message}\n")
    assert len(got[2].encode()) < 300


def test_a_coordinate_within_the_digit_limit_keeps_its_output(capsys):
    status, out, _ = run(capsys, "classify", "--weight", "1e4000,1/2", "--json")
    assert status == 0
    assert json.loads(out)["input"]["weight"] == [str(10 ** 4000), "1/2"]


@pytest.mark.parametrize("argv,message", [
    (["classify", "--weight", "1,1"],
     "dominant integral weights are excluded (finite-dimensional simple quotient)"),
    (["character", "--weight", "1/2,0", "--depth", "3", "--parabolic", "0"],
     "weight must be dominant integral on the subset; coordinate 0 is 1/2"),
    (["phi-check", "--weight", "2,1/3", "--parabolic", "0", "--c", "1/5"],
     "c is not admissible at p=5, n=0"),
    # this used to read "c is not admissible at p=5, n=-1"
    (PHI_A2 + ["--n", "-1"], "n must be nonnegative"),
], ids=["classify", "character", "phi-check", "phi-check-negative-n"])
def test_a_library_precondition_exits_3_with_its_message(capsys, argv, message):
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (3, "", f"error: {message}\n")


def test_phi_suite_names_the_failing_check(monkeypatch):
    monkeypatch.setattr(cli.deform, "phi_c_surjective", lambda *a: False)
    assert cli._suite_phi(4, random.Random(0)) == (
        False, "the surjective check fails")


@pytest.mark.parametrize("argv,message", [
    (PHI_A2 + ["--depth", "0"], "depth must be at least 1"),
    (["verify", "--suite", "phi", "--depth", "0"], "depth must be at least 1"),
    (["character", "--weight", "1,0", "--parabolic", "0", "--depth", "-3"],
     "depth must be at least 1"),
    (["character", "--weight", "1,0", "--depth", "0"],
     "depth must be at least 1"),
    (["classify", "--weight", "-2,3", "--depth", "0"],
     "depth must be at least 1"),
    (["classify", "--weight", "-2,3", "--depth", "-1"],
     "depth must be at least 1"),
    (PHI_A2 + ["--samples", "0"], "samples must be at least 1"),
    # these suites cap or ignore the depth, so they used to pass having
    # checked nothing (reflection's loop ran over range(depth + 1))
    *[(["verify", "--suite", suite, "--depth", depth], "depth must be at least 1")
      for suite, depth in [("reflection", "-2"), ("chevalley", "0"),
                           ("pbw", "0"), ("jantzen", "-1"), ("iwasawa", "0"),
                           ("linkage", "0")]],
])
def test_counts_below_one_are_refused(capsys, argv, message):
    status, out, err = run(capsys, *argv)
    assert status == 3
    assert message in err
    assert out == ""


def test_character_refuses_a_basis_over_budget_before_any_work():
    # this request used to run without bound
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "vermakit.cli", "character", "--type", "A2",
         "--weight", "1/2,1/3", "--depth", "100000"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    size = _verma_labels(parse_type("A2"), 100000, MAX_BASIS_LABELS)
    assert size > MAX_BASIS_LABELS
    assert (f"at least {size} basis labels, over the budget of "
            f"{MAX_BASIS_LABELS}") in proc.stderr


def test_phi_check_refuses_samples_over_the_bound_before_any_work():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "vermakit.cli", *PHI_A2, "--samples",
         str(deform.MAX_SAMPLES + 1)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert (f"samples must be at most {deform.MAX_SAMPLES}, "
            f"got {deform.MAX_SAMPLES + 1}") in proc.stderr


@pytest.mark.parametrize("argv", [
    ["classify", "--weight", "-2,3"],
    ["phi-check", "--weight", "2,1/3", "--parabolic", "0", "--c", "-3"],
    ["verify", "--suite", "verma"],
], ids=lambda argv: argv[0])
def test_depth_over_budget_is_refused_before_any_work(capsys, monkeypatch, argv):
    # each request used to build modules to depth 100000, without bound
    def no_work(*args):
        raise AssertionError("an over-budget request reached the algebra")

    monkeypatch.setattr(cli, "structure_constants", no_work)
    size = _verma_labels(parse_type("A2"), 100000, MAX_BASIS_LABELS)
    status, out, err = run(capsys, *argv, "--depth", "100000")
    assert status == 3 and out == ""
    assert (f"at least {size} basis labels, over the budget of "
            f"{MAX_BASIS_LABELS}") in err


@pytest.mark.parametrize("label,depth", [("A1", 7), ("A2", 9), ("A3", 6),
                                         ("B2", 8), ("G2", 9), ("F4", 4)])
def test_verma_label_count_is_the_basis_size(label, depth):
    rs = parse_type(label)
    alg = EnvelopingAlgebra(structure_constants(rs))
    lam = Weight.of(*[Fraction(1, 2)] * rs.rank)
    size = len(VermaLikeModule(alg, lam, depth).basis)
    assert _verma_labels(rs, depth, size) == size
    assert _verma_labels(rs, depth, size - 1) > size - 1


def test_character_budget_edge(capsys):
    # the deepest A2 truncation within the budget runs; one height more exits 3
    rs = parse_type("A2")
    depth = max(d for d in range(200)
                if _verma_labels(rs, d, MAX_BASIS_LABELS) <= MAX_BASIS_LABELS)
    argv = ["character", "--weight", "1/2,1/3", "--json"]
    status, out, _ = run(capsys, *argv, "--depth", str(depth))
    assert status == 0
    assert sum(e["dim"] for e in json.loads(out)["character"]) == \
        _verma_labels(rs, depth, MAX_BASIS_LABELS)
    status, out, err = run(capsys, *argv, "--depth", str(depth + 1))
    assert status == 3 and out == "" and "over the budget" in err


@pytest.mark.parametrize("argv", [
    ["character", "--weight", "1,0", "--parabolic", "5"],
    ["character", "--weight", "1,0", "--parabolic=-1"],
    ["phi-check", "--weight", "2,1/3", "--parabolic", "5", "--c", "-3"],
    ["phi-check", "--weight", "2,1/3", "--parabolic=-1", "--c", "-3"],
])
def test_simple_root_index_out_of_range(capsys, argv):
    status, _, err = run(capsys, *argv)
    assert status == 2
    assert "bad simple-root subset" in err and "is not in 0..1" in err
