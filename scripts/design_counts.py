"""Print the five design counts that ROADMAP.md tracks for `src/`, the
split of its lines into code and prose, its public names, the options a
user can set, and the lines, `dim` branches and scipy imports of each
module.

    python3 scripts/design_counts.py

  * lines: all lines of the Python files under `src/`, in all and per module;
  * code, docstring, comment and blank lines: the lines split by one `ast`
    pass, so that deleted prose or denser formatting shows apart from deleted
    code.  Every line of a docstring's span is a docstring line (its blank
    lines too); outside docstrings a line is blank, a comment when it starts
    with `#`, and code otherwise;
  * public names: the entries of every module's `__all__`;
  * public names without a caller outside tests: the `__all__` entries that
    nothing reaches, listed by name.  A name is reached when an `ast` `Name`
    or `Attribute` read references it in `perfbench/*.py` or `scripts/*.py`
    (test files aside), in module-level code of `src/`, or in a top-level
    function or class of `src/` that is itself reached, followed to a
    fixpoint: a name read only by unreached code is unreached.  A name's own
    definition, the `__all__` lists and the `__init__` re-exports are not
    references (a definition or an import is no `Name` read);
  * settable parameters: one `ast` walk over every function, method and
    lambda, counting each parameter (positional, keyword-only, *args and
    **kwargs) except `self` and `cls`;
  * `dim` branches: lines matching the ROADMAP item-6 grep
    `dim\\b.*==|ndim ?==|\\.dim ?[<>=]|m ?== ?1\\b`, in all and per module;
  * `isinstance(..., *Domain)` dispatch branches;
  * scipy imports: `import scipy...` and `from scipy...` lines, in all and
    per module (ROADMAP item 16: scipy out of the solver paths);
  * CLI flags: the union of the flags the suites take (`cli._SUITE_FLAGS`);
  * config fields: the fields of `harness.ExperimentConfig`.

It only prints; it gates nothing.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

DIM_BRANCH = re.compile(r"dim\b.*==|ndim ?==|\.dim ?[<>=]|m ?== ?1\b")
DOMAIN_DISPATCH = re.compile(r"isinstance\([^)]*Domain\b")
SCIPY_IMPORT = re.compile(r"^\s*(import|from) scipy\b")


def settable_parameters(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                     *filter(None, (a.vararg, a.kwarg)))]
            count += sum(name not in ("self", "cls") for name in names)
    return count


def line_kinds(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """The code, docstring, comment and blank lines of one module."""
    docstring = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, False) is not None:
            doc = node.body[0]
            docstring.update(range(doc.lineno, doc.end_lineno + 1))
    kinds = {"code lines": 0, "docstring lines": len(docstring), "comment lines": 0,
             "blank lines": 0}
    for no, line in enumerate(lines, 1):
        if no not in docstring:
            stripped = line.strip()
            kinds["blank lines" if not stripped else
                  "comment lines" if stripped.startswith("#") else "code lines"] += 1
    return kinds


def public_names(tree: ast.Module) -> list[str]:
    """The entries of the module's `__all__` (none without one)."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def reads(tree: ast.AST) -> set[str]:
    """The names `tree` reads: its `Name` loads and its `Attribute` names."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unreached_names(root: Path) -> list[str]:
    """The public names of `src/` that no code outside tests reaches."""
    public, reached, defs = [], set(), {}
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        public += public_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(reads(node))
            else:
                reached |= reads(node)
    for path in [*(root / "perfbench").glob("*.py"), *(root / "scripts").glob("*.py")]:
        if not (path.name.startswith("test_") or path.name == "conftest.py"):
            reached |= reads(ast.parse(path.read_text()))
    # the functions and classes reached so far add what they read, until none is new
    frontier = reached & defs.keys()
    while frontier:
        new = set().union(*(defs.pop(name) for name in frontier)) - reached
        reached |= new
        frontier = new & defs.keys()
    return sorted(name for name in public if name not in reached)


def option_counts(src: Path) -> dict[str, int]:
    """The CLI's flags and ExperimentConfig's fields, read from the source."""
    cli = ast.parse((src / "toricmaps" / "cli.py").read_text())
    suite_flags = next(ast.literal_eval(node.value) for node in cli.body
                       if isinstance(node, ast.Assign)
                       and any(getattr(t, "id", None) == "_SUITE_FLAGS" for t in node.targets))
    harness = ast.parse((src / "toricmaps" / "harness.py").read_text())
    config = next(node for node in harness.body
                  if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    return {"CLI flags": len(set().union(*suite_flags.values())),
            "config fields": sum(isinstance(node, ast.AnnAssign) for node in config.body)}


def design_counts(src: Path) -> tuple[dict[str, int], dict[str, int], dict[str, int],
                                      dict[str, int]]:
    """The counts of `src/`, the lines of each module, and the dim branches and the
    scipy imports of each module that has any."""
    counts = {"lines": 0, "code lines": 0, "docstring lines": 0, "comment lines": 0,
              "blank lines": 0, "public names": 0, "settable parameters": 0,
              "dim branches": 0, "isinstance(..., *Domain) branches": 0, "scipy imports": 0}
    module_lines, per_module, scipy_per_module = {}, {}, {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        branches = sum(bool(DIM_BRANCH.search(s)) for s in lines)
        scipy_imports = sum(bool(SCIPY_IMPORT.search(s)) for s in lines)
        tree = ast.parse(text)
        counts["lines"] += len(lines)
        module_lines[path.stem] = len(lines)
        for kind, n in line_kinds(tree, lines).items():
            counts[kind] += n
        counts["public names"] += len(public_names(tree))
        counts["settable parameters"] += settable_parameters(tree)
        counts["dim branches"] += branches
        counts["isinstance(..., *Domain) branches"] += sum(
            bool(DOMAIN_DISPATCH.search(s)) for s in lines)
        counts["scipy imports"] += scipy_imports
        if branches:
            per_module[path.stem] = branches
        if scipy_imports:
            scipy_per_module[path.stem] = scipy_imports
    return counts, module_lines, per_module, scipy_per_module


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    counts, module_lines, per_module, scipy_per_module = design_counts(src)
    for name, value in (counts | option_counts(src)).items():
        print(f"{name}: {value:,}")
    unreached = unreached_names(src.parent)
    print(f"public names without a caller outside tests: {len(unreached)}"
          + "".join(f"\n  {name}" for name in unreached))
    for module, value in module_lines.items():
        print(f"  lines in {module}: {value:,}")
    for module, value in per_module.items():
        print(f"  dim branches in {module}: {value}")
    for module, value in scipy_per_module.items():
        print(f"  scipy imports in {module}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
