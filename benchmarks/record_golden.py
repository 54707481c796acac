"""Record golden.json: the outputs the benchmark's oracles compare against
where no closed form exists.

    python3 benchmarks/record_golden.py

Records the stdout of every CLI invocation in the cli-verbs pool, the bad
primes of every type in lie-data, and the number of nonzero structure
constants per type.  Re-record only at a commit whose outputs are trusted:
the oracles then hold later commits to them byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys

import oracles
from workloads import ROOT, SRC, LieData, child_env

# slot -> argument lists; cli-verbs runs one invocation per slot per pass
CLI_POOL = {
    "classify-singular": [["classify", "--weight", w, "--json"]
                          for w in ("1/2,-1", "2,-1", "-1,3/4", "-1/2,-3/2")],
    "classify-regular-integral": [["classify", "--weight", w, "--json"]
                                  for w in ("-2,3", "-3,4", "-4,1", "3,-2")],
    "character-parabolic": [["character", "--weight", w, "--depth", "4",
                             "--parabolic", "0", "--json"]
                            for w in ("1,0", "2,1/3", "0,-1/2", "3,2")],
    "primes-B3": [["primes", "--type", "B3", "--json"]],
    "primes-G2": [["primes", "--type", "G2", "--json"]],
    "verify-all": [["verify", "--suite", "all", "--depth", "3", "--seed", str(k),
                    "--json"] for k in range(4)],
    "phi-check-A2": [["phi-check", "--weight", "2,1/3", "--parabolic", "0",
                      "--c", "-3", "--seed", str(k), "--json"] for k in range(4)],
    "phi-check-A3": [["phi-check", "--type", "A3", "--weight", "1,1/2,1/3",
                      "--parabolic", "0", "--c", "-3,2", "--seed", str(k), "--json"]
                     for k in range(4)],
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from vermakit.chevalley import structure_constants
    from vermakit.rootsys import bad_primes, parse_type

    cli = []
    for slot, pool in CLI_POOL.items():
        for argv in pool:
            proc = subprocess.run([sys.executable, "-m", "vermakit.cli", *argv],
                                  cwd=ROOT, env=child_env(), capture_output=True,
                                  check=True, timeout=120)
            cli.append({"slot": slot, "argv": argv, "stdout": proc.stdout.decode()})
    golden = {
        "cli": cli,
        "bad_primes": {t: sorted(bad_primes(parse_type(t))) for t in LieData.PRIMES},
        "structure_constant_counts": {
            t: len(list(structure_constants(parse_type(t)).pairs()))
            for t in LieData.TYPES},
    }
    oracles.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
