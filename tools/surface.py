"""Print the size of sodelab's surface, per module and in total.

Usage: ``python3 tools/surface.py`` (no options).  Reads the ``src/sodelab``
tree next to this script with :mod:`ast`; nothing is imported, so the script
needs only the standard library.  One line per module, sorted by file name,
then one ``total`` line.  The columns are:

* ``lines``    -- lines in the file, as ``wc -l`` counts them;
* ``public``   -- names in the module's ``__all__`` (0 without one);
* ``defaults`` -- parameters with a default value over the public callables:
  each function in ``__all__``, and for each class in ``__all__`` its
  constructor (a dataclass's defaulted fields, or ``__init__``) and its
  public methods;
* ``fields``   -- annotated fields of every dataclass in the module, public
  or private (``ClassVar`` annotations excluded);
* ``members``  -- public methods, properties and dataclass fields of the
  classes in ``__all__``.

Running the script on two checkouts and diffing the outputs compares their
surfaces.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sodelab"


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return list(ast.literal_eval(node.value))
    return []


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    return [
        node
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and "ClassVar" not in ast.unparse(node.annotation)
    ]


def _members(cls: ast.ClassDef) -> list[str]:
    """The class's public methods and properties, then its public dataclass fields."""
    names = [
        node.name
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    if _is_dataclass(cls):
        names += [field.target.id for field in _fields(cls)]
    return [name for name in names if not name.startswith("_")]


def _class_defaults(cls: ast.ClassDef) -> int:
    methods = [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if _is_dataclass(cls):
        total = sum(field.value is not None for field in _fields(cls))
    else:
        total = sum(_defaults(m) for m in methods if m.name == "__init__")
    return total + sum(_defaults(m) for m in methods if not m.name.startswith("_"))


def surface(path: Path) -> tuple[int, int, int, int, int]:
    """(lines, public names, defaulted parameters, dataclass fields, class
    members) of one module."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    public = _public_names(tree)
    defaults = members = 0
    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults += _defaults(node)
        elif isinstance(node, ast.ClassDef):
            defaults += _class_defaults(node)
            members += len(_members(node))
    fields = sum(
        len(_fields(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
    )
    return source.count("\n"), len(public), defaults, fields, members


def main() -> None:
    rows = [(path.name, surface(path)) for path in sorted(PACKAGE.glob("*.py"))]
    totals = tuple(sum(column) for column in zip(*(counts for _, counts in rows)))
    print(f"{'module':<16}{'lines':>7}{'public':>8}{'defaults':>10}{'fields':>8}{'members':>9}")
    for name, (lines, public, defaults, fields, members) in [*rows, ("total", totals)]:
        print(f"{name:<16}{lines:>7}{public:>8}{defaults:>10}{fields:>8}{members:>9}")


if __name__ == "__main__":
    main()
