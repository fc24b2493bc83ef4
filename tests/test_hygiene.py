"""What a deletion leaves behind: imports nothing uses, module-level names
nothing references, value-type fields nothing reads, exports, fields and
methods the README does not name, and limits whose values it no longer
states.  Read from the sources with ``ast`` alone."""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dcsimp"


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _exported(trees: dict[str, ast.Module]) -> set[str]:
    """The names listed in any module's ``__all__``."""
    out = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out.update(ast.literal_eval(node.value))
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name read in a module, annotations included, as a bare name, an
    attribute or an imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_imports(tree: ast.Module, exported: set[str]) -> list[str]:
    """Names a module-level import binds that the module never reads."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def _defined(tree: ast.Module) -> list[str]:
    """Module-level defs, classes and assigned names, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level names that no module reads and no ``__all__`` lists."""
    seen = _exported(trees).union(*map(_references, trees.values()))
    return [f"{mod}:{name}" for mod, tree in trees.items() for name in _defined(tree) if name not in seen]


def _value_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Each direct ``_Value`` subclass a module defines."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and "_Value" in map(ast.unparse, cls.bases):
            yield cls


def _value_fields(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """Each public ``__slots__`` name of a direct ``_Value`` subclass, as
    (class, field)."""
    for cls in _value_classes(tree):
        for item in cls.body:
            if isinstance(item, ast.Assign) and ast.unparse(item.targets[0]) == "__slots__":
                fields = ast.literal_eval(item.value)
                yield from ((cls.name, f) for f in fields if not f.startswith("_"))


def unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """Fields of value types that no module reads as an attribute; bare
    names do not count, as a local may share a field's name (``d``, ``n``)."""
    seen = {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    fields = [(mod, cls, f) for mod, tree in trees.items() for cls, f in _value_fields(tree)]
    return [f"{mod}:{cls}.{f}" for mod, cls, f in fields if f not in seen]


def _value_members(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """Each public method or property of a direct ``_Value`` subclass, as
    (class, name)."""
    for cls in _value_classes(tree):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield cls.name, item.name


def unnamed_members(trees: dict[str, ast.Module], readme: str) -> list[str]:
    """Methods and properties of exported value types that the README never
    names in backticks as ``x.name``."""
    exported = _exported(trees)
    named = set(re.findall(r"`\w+\.(\w+)", readme))
    members = [(cls, m) for tree in trees.values() for cls, m in _value_members(tree)]
    return [f"{cls}.{m}" for cls, m in members if cls in exported and m not in named]


def unnamed_fields(trees: dict[str, ast.Module], readme: str) -> list[str]:
    """Fields of exported value types that the README never names in
    backticks, as ``name`` or ``x.name``."""
    exported = _exported(trees)
    named = set(re.findall(r"`(?:\w+\.)?(\w+)`", readme))
    fields = [(cls, f) for tree in trees.values() for cls, f in _value_fields(tree)]
    return [f"{cls}.{f}" for cls, f in fields if cls in exported and f not in named]


def test_every_import_is_used():
    trees = _trees()
    exported = _exported(trees)
    unused = {mod: names for mod, tree in trees.items() if (names := unused_imports(tree, exported))}
    assert unused == {}


def test_every_module_level_name_is_referenced():
    assert unreferenced(_trees()) == []


def test_every_export_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sorted(n for n in _exported(_trees()) if not re.search(rf"\b{n}\b", readme)) == []


def test_every_field_of_an_exported_value_type_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unnamed_fields(_trees(), readme) == []


def test_the_readme_field_guard_finds_an_unnamed_field():
    # what adding a field without documenting it leaves behind; a private
    # type's fields and a name outside backticks do not count
    trees = {
        "m.py": ast.parse(
            "from .core import _Value\n"
            "__all__ = ['Result']\n"
            "class Result(_Value):\n"
            "    __slots__ = ('kept', 'removed', 'grade', '_cache')\n"
            "class _Inner(_Value):\n"
            "    __slots__ = ('hidden',)\n"
        )
    }
    readme = "`r.kept` holds what stays and `grade` its grade; removed is unnamed"
    assert unnamed_fields(trees, readme) == ["Result.removed"]


def test_every_method_of_an_exported_value_type_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unnamed_members(_trees(), readme) == []


def test_the_readme_member_guard_finds_an_unnamed_member():
    # what adding a method or property without documenting it leaves
    # behind; a private type's or private name's members and a bare name
    # without its owner do not count
    trees = {
        "m.py": ast.parse(
            "from .core import _Value\n"
            "__all__ = ['Result']\n"
            "class Result(_Value):\n"
            "    __slots__ = ('kept',)\n"
            "    @property\n"
            "    def size(self): return len(self.kept)\n"
            "    def merged(self, other): return self\n"
            "    def grade(self): return 0\n"
            "    def _cache(self): return None\n"
            "class _Inner(_Value):\n"
            "    __slots__ = ('hidden',)\n"
            "    def peek(self): return self.hidden\n"
        )
    }
    readme = "`r.size` counts `r.kept`, `r.merged(s)` joins two, and `grade` grades"
    assert unnamed_members(trees, readme) == ["Result.grade"]


def test_the_readme_states_the_packaging_floor():
    # core._int calls sys.get_int_max_str_digits, new in Python 3.10.7
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.MULTILINE)
    stated = re.search(r"Requires Python ([\d.]+)\+", (ROOT / "README.md").read_text(encoding="utf-8"))
    assert floor and stated and floor.group(1) == stated.group(1)
    assert tuple(map(int, floor.group(1).split("."))) >= (3, 10, 7)


def test_only_the_process_entry_freezes_the_heap():
    # gc.freeze() keeps every object alive at the call out of collection for
    # the rest of the process, so only the entry of a one-command process
    # may call it: the function that both `python -m dcsimp.cli` and the
    # installed script run, never main() or library code
    trees = _trees()
    block = next(
        node
        for node in trees["cli.py"].body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    called = {
        node.func.id
        for node in ast.walk(block)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    } - {"SystemExit"}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^dcsimp = "dcsimp\.cli:(\w+)"$', pyproject, re.MULTILINE)
    assert script and called == {script.group(1)} != {"main"}

    def freezes(tree: ast.AST) -> int:
        return sum(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "gc.freeze"
            for node in ast.walk(tree)
        )

    entry = next(
        node
        for node in trees["cli.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == script.group(1)
    )
    assert freezes(entry) == sum(map(freezes, trees.values())) == 1


def test_the_guard_finds_leftovers():
    # what removing a flag could leave: its default's import and its validator
    leftover = ast.parse(
        "from __future__ import annotations\n"
        "from typing import Mapping\n"
        "from .decomposition import DEFAULT_EXACT_LIMIT, analyze\n"
        "__all__ = ['run']\n"
        "LIMIT = 3\n"
        "def _limit(text): return int(text)\n"
        "def run(x: Mapping) -> int: return analyze(x)\n"
    )
    assert unused_imports(leftover, set()) == ["DEFAULT_EXACT_LIMIT"]
    assert unreferenced({"m.py": leftover}) == ["m.py:LIMIT", "m.py:_limit"]


def test_every_value_field_is_read():
    assert unread_fields(_trees()) == []


def test_the_field_guard_finds_a_field_nobody_reads():
    # what a refactor that drops a field's last reader leaves behind
    leftover = ast.parse(
        "from .core import _Value\n"
        "class Result(_Value):\n"
        "    __slots__ = ('kept', 'removed_pairs', '_cache')\n"
        "def run(r, removed_pairs): return r.kept, removed_pairs\n"
    )
    assert unread_fields({"m.py": leftover}) == ["m.py:Result.removed_pairs"]


def _assigned(tree: ast.Module, name: str):
    """The literal value a module assigns to ``name`` at its top level."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def lazy_table_faults(trees: dict[str, ast.Module]) -> list[str]:
    """Where ``__init__.py``'s eager imports and lazy name table miss its
    ``__all__``, overlap, or map a name to a module that does not define it
    at its top level, and lazy submodules that are no module."""
    init = trees["__init__.py"]
    eager = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    lazy = _assigned(init, "_LAZY") or {}
    exported = _assigned(init, "__all__") or []
    faults = [f"twice: {n}" for n in sorted(set(eager) & set(lazy))]
    faults += [f"not exported: {n}" for n in sorted({*eager, *lazy} - set(exported))]
    faults += [f"not bound: {n}" for n in sorted(set(exported) - {*eager, *lazy})]
    for name, module in sorted(lazy.items()):
        tree = trees.get(f"{module}.py")
        if tree is None or name not in _defined(tree):
            faults.append(f"{name} is not defined in {module}")
    faults += [f"no module: {m}" for m in _assigned(init, "_SUBMODULES") or () if f"{m}.py" not in trees]
    return faults


def test_the_lazy_table_covers_exactly_the_exports():
    assert lazy_table_faults(_trees()) == []


def test_the_lazy_table_guard_finds_a_stale_entry():
    # what moving a function between modules, or renaming it, could leave
    trees = {
        "__init__.py": ast.parse(
            "from .core import load, dump\n"
            "_LAZY = {'analyze': 'meg', 'dump': 'core', 'old': 'core'}\n"
            "_SUBMODULES = ('core', 'gone')\n"
            "__all__ = ['load', 'analyze', 'dump', 'new']\n"
        ),
        "core.py": ast.parse("def load(): pass\ndef dump(): pass\n"),
        "meg.py": ast.parse("from .core import load\ndef analyze_class(): pass\n"),
    }
    assert lazy_table_faults(trees) == [
        "twice: dump",
        "not exported: old",
        "not bound: new",
        "analyze is not defined in meg",
        "old is not defined in core",
        "no module: gone",
    ]


def stale_limits(meg_tree: ast.Module, readme: str) -> list[str]:
    """Where the README misses a value ``meg.py`` assigns to its two limits:
    each backticked ``meg.NAME`` must follow the number it stands for, within
    a few words, and each limit must be named at least once."""
    faults = []
    for name in ("EXACT_LIMIT", "SEARCH_BUDGET"):
        value = _assigned(meg_tree, name)
        mentions = list(re.finditer(rf"`meg\.{name}`", readme))
        if not mentions:
            faults.append(f"{name} is not named")
        for m in mentions:
            numbers = re.findall(r"\d(?:[\d,]*\d)?", readme[max(0, m.start() - 40) : m.start()])
            said = int(numbers[-1].replace(",", "")) if numbers else None
            if said != value:
                faults.append(f"{name}: the README says {said}, meg.py {value}")
    return faults


def test_the_readme_states_the_search_limits():
    meg = ast.parse((SRC / "meg.py").read_text(encoding="utf-8"))
    assert stale_limits(meg, (ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_the_limit_guard_finds_a_stale_value():
    # what changing a limit without its README sentence leaves behind
    meg = ast.parse("EXACT_LIMIT = 24  # arcs\nSEARCH_BUDGET = 100_000\n")
    readme = (
        "A class of more than 20 tight arcs (`meg.EXACT_LIMIT`) or 100,000\n"
        "search nodes (`meg.SEARCH_BUDGET`); at most 24 (`meg.EXACT_LIMIT`).\n"
    )
    assert stale_limits(meg, readme) == ["EXACT_LIMIT: the README says 20, meg.py 24"]
    assert stale_limits(meg, "`meg.SEARCH_BUDGET` is 100,000") == [
        "EXACT_LIMIT is not named",
        "SEARCH_BUDGET: the README says None, meg.py 100000",
    ]


def test_oracles_import_no_solver_module():
    # the README's claim: the test suite's references share nothing with the
    # solver but the graph containers, the errors and the text format
    allowed = {
        "dcsimp.core": {"Edge", "PrecedenceGraph", "Walk", "weight_text"},
        "dcsimp.fileformat": {"loads"},
    }
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module, alias.name) for alias in node.names)
    banned = {
        (module, name)
        for module, name in imported
        if module.split(".")[0] == "dcsimp"
        and module != "dcsimp.errors"
        and name not in allowed.get(module, ())
    }
    assert banned == set()


def _exit_codes(text: str) -> list[int]:
    """The codes listed in the sentence that starts ``Exit codes:``."""
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", text, re.DOTALL)
    assert sentence, "no 'Exit codes:' sentence"
    return sorted(int(code) for code in re.findall(r"\b\d+\b", sentence.group(1)))


def test_exit_codes_are_the_documented_ones():
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    codes = sorted(
        node.value.value
        for node in cli.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id.startswith("EXIT_") for t in node.targets)
    )
    assert codes == _exit_codes(ast.get_docstring(cli))
    assert codes == _exit_codes((ROOT / "README.md").read_text(encoding="utf-8"))
