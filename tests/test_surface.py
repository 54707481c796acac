"""The library keeps what the program runs: every public top-level function
or class in src/vermakit, and every public method of a public class, is
referenced somewhere in src/ outside its own definition, apart from an
explicit list of names kept for a reader outside the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vermakit"

# public names no library path calls, each with the reader that keeps it
KEPT = {
    "Character.total": "test reference: character sizes in the tests and CI",
    "constants_to_json": "test reference: the Chevalley digests in test_chevalley",
    "gvm_region_irreducible": "the paper's acceptance tests (test_acceptance)",
    "kostant_partition": "benchmark: the weightmod.kostant tracer target",
    "module_to_json": "test reference: the recorded modules in test_module_json",
    "phi_c_level_check": "ROADMAP item 6, the exhaustive phi_c level check",
    "rank": "benchmark: the linalg.rank tracer target",
    "shapovalov_gram": "benchmark: the weightmod.gram tracer target",
    "simple_dims": "benchmark: the modules workload",
    "weyl_dim": "test reference: dominant simple characters in test_weightmod",
}


def _reads(node, bound=frozenset()):
    """(name, base) for each read under node: a Name that no enclosing
    function binds (as a parameter, or by an assignment anywhere in it) with
    base None, and an attribute with base the unbound Name it is taken on,
    or "" when it is taken on anything else."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        args = node.args
        bound = bound | {a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs, args.vararg,
                                         args.kwarg) if a}
        bound |= {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in bound:
            yield node.id, None
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        base = node.value
        yield node.attr, (base.id if isinstance(base, ast.Name)
                          and base.id not in bound else "")
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, bound)


def unreferenced_public_names(src: Path) -> dict[str, str]:
    """Public top-level functions and classes of the modules in src, and the
    public methods of those classes as "Class.method", that nothing in src
    reads outside their own definition, mapped to their file.  A top-level
    name is read by a Name, or by an attribute on a module of src, as in
    ``criteria.classify_sl3``; a method by an attribute of its name on
    anything.  An import alone is no reference."""
    modules = {path.stem for path in src.glob("*.py")}
    defined: dict[str, str] = {}
    names: set[str] = set()
    attrs: set[str] = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   else None)
            public = own is not None and not own.startswith("_")
            if public:
                defined[own] = path.name
            # a class is read piece by piece, so that each method's reads
            # of its own name are set aside
            is_class = isinstance(node, ast.ClassDef)
            for piece in ast.iter_child_nodes(node) if is_class else [node]:
                method = (piece.name if is_class and isinstance(piece, ast.FunctionDef)
                          else None)
                if public and method and not method.startswith("_"):
                    defined[f"{own}.{method}"] = path.name
                for name, base in _reads(piece):
                    if name == own:
                        continue
                    if base is None or base in modules:
                        names.add(name)
                    if base is not None and name != method:
                        attrs.add(name)

    def read(name: str) -> bool:
        method = name.partition(".")[2]
        return method in attrs if method else name in names

    return {name: file for name, file in defined.items() if not read(name)}


def test_every_public_name_has_a_caller_in_the_library():
    loose = unreferenced_public_names(SRC)
    assert set(loose) - set(KEPT) == set(), (
        "public names with no reference in src/ (give each a caller, or "
        "move it into tests/ as an oracle)")
    # a kept name that gained a caller, or left, leaves the list
    assert set(KEPT) - set(loose) == set()


def test_a_name_read_only_by_itself_is_unreferenced(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\nfrom .b import helper\n\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n"
        "class Used:\n"
        "    def recurse(self):\n        return self.recurse()\n\n"
        "    def called(self):\n        return 1\n\n"
        "def caller():\n    return Used().called(), helper, b.via_module\n")
    (tmp_path / "b.py").write_text(
        "def helper():\n    pass\n\n"
        "def imported_only():\n    pass\n\n"
        "def via_module():\n    pass\n")
    (tmp_path / "c.py").write_text("from .b import imported_only\n")
    assert unreferenced_public_names(tmp_path) == {
        "loop": "a.py", "Used.recurse": "a.py", "caller": "a.py",
        "imported_only": "b.py"}


def test_a_shadowed_name_or_an_attribute_of_another_object_is_no_reference(
        tmp_path):
    (tmp_path / "a.py").write_text(
        "def param():\n    pass\n\n"
        "def local():\n    pass\n\n"
        "def attribute():\n    pass\n\n"
        "def outer():\n    pass\n\n"
        "def reader(param, obj):\n"
        "    local = obj.attribute\n"
        "    return param, local, lambda outer: outer\n")
    assert unreferenced_public_names(tmp_path) == {
        "param": "a.py", "local": "a.py", "attribute": "a.py",
        "outer": "a.py", "reader": "a.py"}
