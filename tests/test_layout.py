"""src/ holds production routes only.

Every module-level function and class in `src/padic_wavelets`, and every
method of such a class, must be reached from a non-test caller: a function
of `cli.py`, or a `module.name` attribute reference or package import in
`perfbench/*.py`.  Reference oracles and identity checks that only tests
call live in `tests/oracles.py` or in the test module that uses them.

A reached class brings its class-level statements and its dunder methods
with it, since operators, constructors and the interpreter call dunders
without naming them.  Any other method counts only when reached code loads
its name; a method of an unreached class is not reported on its own.

The walk is conservative: a name loaded anywhere in reached code (or in the
statements that run at import) counts as a use of every definition with that
name, in any module, and so does any attribute of that name; a use of an
`import name as alias` alias is a use of the name.  A name bound in the
function that loads it (a parameter, an assignment, a loop or comprehension
target, a local import) is that function's own, not a use.
"""

import ast
from copy import copy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "padic_wavelets"
PACKAGE = "padic_wavelets"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bound(scope) -> set:
    """Names that `scope` binds itself, nested scopes excluded."""
    names = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if arg is not None:
                names.add(arg.arg)
        body = scope.body if isinstance(scope.body, list) else [scope.body]
    else:
        names.update(n.id for gen in scope.generators for n in ast.walk(gen.target)
                     if isinstance(n, ast.Name))
        body = [scope]
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if node is not scope and isinstance(node, _SCOPES):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return names


def _uses(node, shadowed=frozenset()) -> set:
    """Names loaded in `node` that may refer to a module-level definition,
    and every attribute name."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _bound(node)
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        out |= _uses(child, shadowed)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(src: Path):
    """(module, name) -> the module-level def node, the class node without
    its non-dunder methods, or, under (module, "Class.method"), such a
    method; and the names loaded by the statements that run at import."""
    defs, at_import = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                shell = copy(node)
                shell.body = []
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _is_dunder(item.name)):
                        defs[(path.stem, f"{node.name}.{item.name}")] = item
                    else:
                        shell.body.append(item)
                defs[(path.stem, node.name)] = shell
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[(path.stem, node.name)] = node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # decorators, defaults and bases run at import
                at_import |= set().union(*(_uses(d) for d in getattr(node, "decorator_list", [])))
            else:
                at_import |= _uses(node)
    return defs, at_import


def _roots(src: Path) -> set:
    names = set()
    # every function of the CLI module
    for node in ast.walk(_parse(src / "cli.py")):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= _uses(node)
    # module.name references of the benchmark
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE):
                names.update(a.name for a in node.names)
    return names


def _aliases(src: Path) -> dict:
    """`import name as alias` in src/ and perfbench/: alias -> names."""
    out = {}
    paths = [*src.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    if a.asname:
                        out.setdefault(a.asname, set()).add(a.name)
    return out


def unreached(src: Path = SRC) -> list:
    """The module-level definitions of `src`, and the methods of reached
    classes, that no root reaches."""
    defs, at_import = _definitions(src)
    aliases = _aliases(src)
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    # click registers the commands by decorator: all of cli.py is a root
    reached = {key for key in defs if key[0] == "cli"}
    todo = list(_roots(src) | at_import)
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(aliases.get(name, ()))
        for key in by_name.get(name, ()):
            reached.add(key)
            todo.extend(_uses(defs[key]))
    # a method of an unreached class is reported with its class
    return sorted(f"{module}.{name}" for module, name in defs.keys() - reached
                  if "." not in name or (module, name.partition(".")[0]) in reached)


def test_every_src_definition_has_a_production_caller():
    missing = unreached()
    assert missing == [], "no production caller: " + ", ".join(missing)


def _src_copy(tmp_path) -> Path:
    """A copy of the package sources, for a negative control to change."""
    pkg = tmp_path / "padic_wavelets"
    pkg.mkdir()
    for path in SRC.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    return pkg


def test_the_walk_finds_an_unreached_definition(tmp_path):
    # negative control: a helper that nothing outside tests calls
    pkg = _src_copy(tmp_path)
    with open(pkg / "haar.py", "a") as f:
        f.write("\n\ndef test_only_helper(p):\n    return haar_step(p, HaarIndex(0, 0))\n")
    assert unreached(pkg) == ["haar.test_only_helper"]


def test_the_walk_finds_an_unreached_method(tmp_path):
    # negative control: a method of a reached class that no reached code
    # names, next to a dunder that no code names either
    pkg = _src_copy(tmp_path)
    text = (pkg / "padic.py").read_text()
    anchor = "    def unit_int(self) -> int:\n"
    assert text.count(anchor) == 1
    extra = ("    def test_only_method(self):\n        return self.digits\n\n"
             "    def __len__(self):\n        return len(self.digits)\n\n")
    (pkg / "padic.py").write_text(text.replace(anchor, extra + anchor))
    assert unreached(pkg) == ["padic.PAdicNumber.test_only_method"]
