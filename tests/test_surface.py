"""The library keeps what the program runs: every public top-level function
or class in src/vermakit is referenced somewhere in src/ outside its own
definition, apart from an explicit list of names kept for a reader outside
the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vermakit"

# public names no library path calls, each with the reader that keeps it
KEPT = {
    "constants_to_json": "test reference: the Chevalley digests in test_chevalley",
    "gvm_region_irreducible": "the paper's acceptance tests (test_acceptance)",
    "kostant_partition": "benchmark: the weightmod.kostant tracer target",
    "module_to_json": "test reference: the recorded modules in test_module_json",
    "phi_c_level_check": "ROADMAP item 5, the exhaustive phi_c level check",
    "shapovalov_gram": "benchmark: the weightmod.gram tracer target",
    "simple_dims": "benchmark: the modules workload",
    "weyl_dim": "test reference: dominant simple characters in test_weightmod",
}


def unreferenced_public_names(src: Path) -> dict[str, str]:
    """Public top-level functions and classes of the modules in src that no
    Name or attribute in src reads outside their own definition, mapped to
    their file.  An import alone is no reference."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if own and not node.name.startswith("_"):
                defined[node.name] = path.name
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute)
                        else None)
                if name is not None and not (own and name == node.name):
                    used.add(name)
    return {name: file for name, file in defined.items() if name not in used}


def test_every_public_name_has_a_caller_in_the_library():
    loose = unreferenced_public_names(SRC)
    assert set(loose) - set(KEPT) == set(), (
        "public names with no reference in src/ (give each a caller, or "
        "move it into tests/ as an oracle)")
    # a kept name that gained a caller, or left, leaves the list
    assert set(KEPT) - set(loose) == set()


def test_a_name_read_only_by_itself_is_unreferenced(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import helper\n\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n"
        "class Used:\n    pass\n\n"
        "def caller():\n    return Used(), helper\n")
    (tmp_path / "b.py").write_text(
        "def helper():\n    pass\n\n"
        "def imported_only():\n    pass\n")
    (tmp_path / "c.py").write_text("from .b import imported_only\n")
    assert unreferenced_public_names(tmp_path) == {
        "loop": "a.py", "caller": "a.py", "imported_only": "b.py"}
