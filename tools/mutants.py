"""A committed mutation battery: each mutant is one exact text edit to a file
under src/ and the tests that must catch it.

    python tools/mutants.py

The harness copies src/ to a temporary directory and requires every
mutant's ``old`` text to occur exactly once in its file, so an edit that a
refactor moved or duplicated fails loudly instead of planting nothing.  It
runs the union of the named tests once against the clean copy, where they
must pass, and then each mutant's tests against a fresh copy with that one
edit, where they must fail.  The tests run in a subprocess from the
repository root, with PYTHONPATH set to the copy and no bytecode written,
so a stale cache cannot hide an edit of the same size.  Exit 0 when every
mutant is caught, 1 otherwise.  Standard library only; pytest must be
importable by the interpreter that runs this.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/vermakit, old text, new text, test ids that must fail)
MUTANTS = {
    "sl3-walk-reflects-root-1-first": (
        "criteria.py",
        "i = 1 if _in_n0(cur.coords[0] + 1) else 0",
        "i = 0 if _in_n0(cur.coords[1] + 1) else 1",
        ["tests/test_criteria.py::test_walk_grid_digest"]),
    "levi-h-negates-the-hd-term": (
        "weightmod.py",
        '_vec_add(out, self.int_action(("hd", j), label), cartan[j][i])',
        '_vec_add(out, self.int_action(("hd", j), label), -cartan[j][i])',
        ["tests/test_weightmod.py::test_scalar_levi_module_labels_are_h_weight_vectors"]),
    "levi-denominator-leaves-out-v-pivots": (
        "weightmod.py",
        "math.lcm(*(p for *_, p in self._reduction.values()))",
        "1",
        ["tests/test_weightmod.py::test_levi_actions_match_the_fraction_reference"]),
    "reduce-against-unscaled": (
        "linalg.py",
        "vec = [scale * x for x in vec]",
        "vec = list(vec)",
        ["tests/test_linalg.py::test_rref_matches_fraction_gauss_jordan"]),
    "simple-dims-keeps-one-e-block": (
        "weightmod.py",
        "if images:\n                blocks.append(",
        "if images and not blocks:\n                blocks.append(",
        ["tests/test_weightmod.py::test_simple_dims_are_the_shapovalov_ranks_on_every_type"]),
    "simple-dims-identity-at-a-rank-deficient-level": (
        "weightmod.py",
        "len(pivots) == len(labels)",
        "len(pivots) + 1 >= len(labels)",
        ["tests/test_weightmod.py::"
         "test_simple_dims_at_dominant_weights_are_signed_kostant_sums",
         "tests/test_criteria.py::test_walk_grid_digest"]),
    "closed-subsystem-det-reads-the-last-column": (
        "rootsys.py",
        "math.prod(row[i] for i, row in enumerate(pivot_rows))",
        "math.prod(row[-1] for row in pivot_rows)",
        ["tests/test_golden.py::test_closed_subsystems_replay",
         "tests/test_rootsys.py::"
         "test_closed_subsystem_determinants_match_fraction_elimination"]),
    "lam-dual-solved-against-the-cartan-columns": (
        "weightmod.py",
        "span_coordinates(rs.cartan, [lam.coords])",
        "span_coordinates([list(col) for col in zip(*rs.cartan)], [lam.coords])",
        ["tests/test_weightmod.py::test_lam_dual_is_lam_on_the_dual_cartan_basis"]),
    "check-weight-ignores-the-size-bound": (
        "rootsys.py",
        "if (i := _oversized(lam.coords)) is not None:",
        "if (i := None) is not None:",
        ["tests/test_rootsys.py::test_check_weight_refuses_an_oversized_coordinate"]),
    "kostant-table-counts-each-root-once": (
        "weightmod.py",
        "for k in index.values():",
        "for k in reversed(index.values()):",
        ["tests/test_weightmod.py::"
         "test_kostant_table_counts_the_verma_labels_of_each_drop"]),
    "kostant-key-base-without-root-margin": (
        "weightmod.py",
        "base = max(map(max, drops)) + max(map(max, rs.positive_roots)) + 1",
        "base = max(map(max, drops)) + 1",
        ["tests/test_weightmod.py::"
         "test_kostant_table_matches_the_tuple_keyed_reference"]),
    "compute-a-reads-signed-pairings": (
        "criteria.py",
        "int(abs(pairings[a]))",
        "int(pairings[a])",
        ["tests/test_criteria.py::test_compute_A_values"]),
    "phi-c-checks-take-zero-samples": (
        "deform.py",
        "if samples < 1:",
        "if samples < 0:",
        ["tests/test_deform.py::"
         "test_phi_c_checks_refuse_a_sample_count_out_of_range_before_any_work"]),
    "case3-reflected-module-one-level-short": (
        "criteria.py",
        "max(depth - height, 1)",
        "max(depth - height - 1, 1)",
        ["tests/test_criteria.py::test_case3_additivity_direct",
         "tests/test_criteria.py::test_walk_grid_digest"]),
    "induced-character-check-skipped": (
        "weightmod.py",
        "    counts = module.drop_counts()\n    expect = _orbit_counts(",
        "    return\n    counts = module.drop_counts()\n    expect = _orbit_counts(",
        ["tests/test_weightmod.py::"
         "test_induced_character_check_catches_a_missing_label"]),
    "orbit-walk-bounded-one-short": (
        "rootsys.py",
        "(depth is None or sum(new) <= depth)",
        "(depth is None or sum(new) < depth)",
        ["tests/test_weightmod.py::"
         "test_dominant_simple_dims_match_the_rank_path_and_weyl_dim",
         "tests/test_rootsys.py::"
         "test_bounded_dot_orbit_is_the_full_orbit_within_the_depth"]),
    "orbit-seeds-without-the-identity": (
        "weightmod.py",
        "    seeds = dot_orbit(rs, lam, subset, depth)\n",
        "    seeds = {s: v for s, v in dot_orbit(rs, lam, subset, depth).items() if any(s)}\n",
        ["tests/test_weightmod.py::test_orbit_counts_match_the_per_drop_reference"]),
    "weyl-path-on-integral-weights": (
        "weightmod.py",
        "if lam.is_dominant_integral():",
        "if lam.is_integral():",
        ["tests/test_weightmod.py::"
         "test_characters_match_the_fraction_construction"]),
    "character-order-reversed": (
        "weightmod.py",
        "pairs = sorted(zip(zip(*pairings), map(counts.__getitem__, drops)))",
        "pairs = sorted(zip(zip(*pairings), map(counts.__getitem__, drops)), reverse=True)",
        ["tests/test_weightmod.py::"
         "test_characters_match_the_fraction_construction"]),
    "dot-orbit-sign-unflipped": (
        "rootsys.py",
        "signs[new] = -signs[drop]",
        "signs[new] = signs[drop]",
        ["tests/test_weightmod.py::test_parabolic_verma_character_cross_check",
         "tests/test_weightmod.py::"
         "test_simple_dims_at_dominant_weights_are_signed_kostant_sums"]),
    "phi-c-target-keeps-moving-labels": (
        "weightmod.py",
        "if not any(x[1]))",
        "if True)",
        ["tests/test_module_json.py::"
         "test_target_action_is_the_projected_source_action",
         "tests/test_deform.py::"
         "test_phi_c_surjective_matches_the_per_label_reference"]),
    "phi-c-surjective-accepts-a-short-target": (
        "deform.py",
        "if not any(x[1])} == set(target.basis)",
        "if not any(x[1])} >= set(target.basis)",
        ["tests/test_deform.py::"
         "test_phi_c_surjective_matches_the_per_label_reference"]),
    "levi-filing-reuses-the-first-v-drop": (
        "weightmod.py",
        "            v_drop = self.V._drop_of[b]\n",
        "            v_drop = self.V._drop_of[self.V.basis[0]]\n",
        ["tests/test_weightmod.py::"
         "test_induced_filing_matches_the_generator_reference"]),
    "phi-c-comparison-swaps-the-scales": (
        "deform.py",
        "scale = q * ds ** k * dt ** top\n"
        "        for label, y in _project(target, source.int_word(word, ints)).items():\n"
        "            diff[label] = diff.get(label, 0) + scale * y\n"
        "        scale = q * dt ** k * ds ** top\n",
        "scale = q * dt ** k * ds ** top\n"
        "        for label, y in _project(target, source.int_word(word, ints)).items():\n"
        "            diff[label] = diff.get(label, 0) + scale * y\n"
        "        scale = q * ds ** k * dt ** top\n",
        ["tests/test_deform.py::"
         "test_homomorphism_check_matches_the_parent_reference"]),
    "phi-c-target-derivation-unchecked": (
        "deform.py",
        " or target.source is not source\n",
        "\n",
        ["tests/test_deform.py::test_projection_refusals_keep_their_messages"]),
}


def copy_src(dest: Path, edit: tuple[str, str, str] | None = None) -> Path:
    """A copy of src/ under dest, without bytecode, with the edit
    (file, old, new) planted; returns the copy's src directory.  Raises
    ValueError unless old occurs in the file exactly once."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if edit is not None:
        name, old, new = edit
        path = src / "vermakit" / name
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"old text occurs {text.count(old)} times, "
                             f"not once: {old!r}")
        path.write_text(text.replace(old, new))
    return src


def run_tests(src: Path, tests: list[str]) -> int:
    """pytest's exit status for the tests against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="vermakit-mutants-") as tmp:
        tmp = Path(tmp)
        try:  # every old text once, before any test runs
            for name, (file, old, new, _) in MUTANTS.items():
                copy_src(tmp / name, (file, old, new))
        except ValueError as e:
            print(f"{name}: {file}: {e}", file=sys.stderr)
            return 1
        clean = copy_src(tmp / "clean")
        tests = sorted({t for *_, ids in MUTANTS.values() for t in ids})
        status = run_tests(clean, tests)
        if status != 0:
            print(f"the named tests do not pass on the clean copy "
                  f"(pytest exit {status})", file=sys.stderr)
            return 1
        survivors = 0
        for name, (file, old, new, ids) in MUTANTS.items():
            start = time.perf_counter()
            status = run_tests(tmp / name / "src", ids)
            # 1: tests ran and failed; anything else (passed, not found,
            # a collection error) does not show the tests catching the edit
            verdict = "caught" if status == 1 else f"NOT caught (pytest exit {status})"
            survivors += status != 1
            print(f"{name}: {verdict} in {time.perf_counter() - start:.1f} s")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
