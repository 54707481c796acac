import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vermakit.cli import main

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


PHI_A2 = ["phi-check", "--weight", "2,1/3", "--parabolic", "0", "--c", "-3"]


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
])
def test_counts_below_one_are_refused(capsys, argv, message):
    status, out, err = run(capsys, *argv)
    assert status == 3
    assert message in err
    assert out == ""


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
