"""Source and README checks that need no third-party linter: stdlib only."""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from listdefect import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "listdefect"
README = SRC.parent.parent / "README.md"
TRACER = SRC.parent.parent / "bench" / "tracer.py"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing else in the
    module reads; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names inside quoted annotations such as "ColoredGraph"
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used.add(n.value)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_finds_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]) -> 'Sequence':\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _names_read(sources: dict[str, str]) -> set[str]:
    """Every name the modules read.  A read is a loaded name, an attribute
    or an imported name, outside the module-level statement that defines
    it, so a function that only calls itself does not read its own name."""
    read: set[str] = set()
    for source in sources.values():
        for stmt in ast.parse(source).body:
            names = _defined_names(stmt)
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    seen = n.id
                elif isinstance(n, ast.Attribute):
                    seen = n.attr
                elif isinstance(n, ast.alias):
                    # "from .a import _f as g" reads _f
                    seen = n.name
                else:
                    continue
                if seen not in names:
                    read.add(seen)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore) that no module reads."""
    defined: dict[str, str] = {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for name in _defined_names(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = module
    read = _names_read(sources)
    return sorted(f"{module}: {name}" for name, module in defined.items() if name not in read)


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_name_check_finds_leftovers():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "def _walk(n):\n"
            "    return _walk(n - 1) if n else _LIMIT\n"
            "class _Helper:\n"
            "    pass\n"
            "def _shared():\n"
            "    pass\n"
        ),
        "b.py": "from .a import _shared as shared\nimport a\nx = a._Helper\n",
    }
    assert unread_private_names(sources) == ["a.py: _UNUSED", "a.py: _walk"]


# Exported names that no module of the package reads, each kept for the
# callers outside it named here
PUBLIC_ONLY = {
    "tau_g_conflict": "demo 05",
    "defective_linial": "the bench tracer's spans, demo 04",
    "single_defect_oldc": "the oldc-scaled bench workload, demo 05",
    "arbdefective_subroutine": (
        "public decomposition API and its tests; the framework reads its intra-class core"
    ),
    "run": "demo 03 and the engine tests",
}


def unread_exports(sources: dict[str, str]) -> list[str]:
    """Names that ``__init__.py`` imports to re-export and that no other
    module reads."""
    exported = [
        alias.asname or alias.name
        for node in ast.parse(sources["__init__.py"]).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    read = _names_read({m: s for m, s in sources.items() if m != "__init__.py"})
    return sorted(name for name in exported if name not in read)


def test_every_export_has_a_caller_or_is_public_only():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_exports(sources) == sorted(PUBLIC_ONLY)


def test_unread_export_check_finds_leftovers():
    sources = {
        "__init__.py": "from .a import count, helper, spare\nfrom .b import Box\n",
        "a.py": (
            "def count(n):\n"
            "    return count(n - 1) if n else 0\n"
            "def helper():\n"
            "    pass\n"
            "def spare():\n"
            "    pass\n"
        ),
        "b.py": (
            "from .a import helper\n"
            "import a\n"
            "class Box:\n"
            "    def again(self):\n"
            "        return Box()\n"
            "x = a.spare\n"
        ),
    }
    assert unread_exports(sources) == ["Box", "count"]


def tracer_tables(source: str) -> dict[str, dict[str, tuple]]:
    """The literal tables of a tracer source, by assigned name."""
    return {
        stmt.targets[0].id: ast.literal_eval(stmt.value)
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
        and stmt.targets[0].id in ("SPANNED", "COUNTED")
    }


def missing_traced_names(table: dict[str, tuple]) -> list[str]:
    """Entries of a (module, attribute path) table that are not in
    ``vars()`` of their ``listdefect`` module or class, where the tracer
    looks each one up."""
    missing = []
    for short, attrs in table.items():
        mod = importlib.import_module(f"listdefect.{short}")
        for attr in attrs:
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or fname not in vars(owner):
                missing.append(f"{short}.{attr}")
    return missing


def test_every_name_the_bench_traces_exists():
    # the bench tracer wraps these names at install time; a missing one
    # makes every traced run raise KeyError
    tables = tracer_tables(TRACER.read_text())
    assert sorted(tables) == ["COUNTED", "SPANNED"]
    for table in tables.values():
        assert missing_traced_names(table) == []


def test_traced_name_check_finds_leftovers():
    table = {
        "conflict": ("build_type_table", "build_cached_table"),
        "graphs": ("ColoredGraph.build", "ColoredGraph.rebuild", "Missing.build"),
    }
    assert missing_traced_names(table) == [
        "conflict.build_cached_table", "graphs.ColoredGraph.rebuild", "graphs.Missing.build",
    ]


def gc_importers(sources: dict[str, str]) -> list[str]:
    """Modules that import the ``gc`` module, at any depth."""
    found = []
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            names = [a.name for a in n.names] if isinstance(n, ast.Import) else []
            if isinstance(n, ast.ImportFrom) and n.module == "gc" and not n.level:
                names = ["gc"]
            if any(name.split(".")[0] == "gc" for name in names):
                found.append(module)
                break
    return sorted(found)


def test_only_the_entry_point_touches_the_collector():
    # `cli.main` pauses the cyclic collector around a command; a library
    # module that tuned it would change every caller's process
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [m for m in gc_importers(sources) if m != "cli.py"] == []


def test_gc_import_check_finds_leftovers():
    sources = {
        "a.py": "import os, gc\n",
        "b.py": "from gc import collect\n",
        "c.py": "def f():\n    import gc as collector\n    collector.disable()\n",
        "d.py": "import gcx\nfrom . import gc_tools\nfrom .gc import x\nname = 'gc'\n",
    }
    assert gc_importers(sources) == ["a.py", "b.py", "c.py"]


def config_builders(source: str, config: str) -> list[str]:
    """One entry per call of ``config`` with arguments: the name of the
    module-level def or class that makes it, or "<module>".  A bare
    ``config()`` is the default and sets no value, so it is not counted."""
    found = []
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for n in ast.walk(stmt):
            if not isinstance(n, ast.Call) or not (n.args or n.keywords):
                continue
            func = n.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == config:
                found.append(owner)
    return sorted(found)


def test_the_full_algorithm_is_configured_in_one_place():
    # oldc-main and the pipeline's inner read the same flags into the same
    # MainConfig; a second mapping would let one flag mean two things
    assert config_builders((SRC / "reductions.py").read_text(), "MainConfig") == []
    assert config_builders((SRC / "cli.py").read_text(), "MainConfig") == ["_main_config"]


def test_config_builder_check_finds_leftovers():
    source = (
        "from . import oldc_main\n"
        "DEFAULT = Config(alpha=1)\n"
        "def build(opts):\n"
        "    if opts:\n"
        "        return Config(opts['alpha'])\n"
        "    return oldc_main.Config(alpha=2)\n"
        "def default(config=None):\n"
        "    return config or Config()\n"
        "class Holder:\n"
        "    def make(self):\n"
        "        return Config(tau=1), Other(tau=1)\n"
    )
    assert config_builders(source, "Config") == ["<module>", "Holder", "build", "build"]


def test_type_messages_are_built_in_one_place():
    # both OLDC routines send types in one format, built by one codec; a
    # second builder could price or read a type differently
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sites = [
        f"{module}: {owner}"
        for module, source in sources.items()
        for owner in config_builders(source, "Pow2DefectField")
    ]
    assert sites == ["oldc_basic.py: _type_message"]


def assert_statements(sources: dict[str, str]) -> list[str]:
    """One "module: line" entry per ``assert`` statement."""
    return sorted(
        f"{module}: {n.lineno}"
        for module, source in sources.items()
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Assert)
    )


def test_invariants_raise_typed_errors_not_asserts():
    # an assert ends a run in a raw AssertionError, and does not run at
    # all under python -O
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert assert_statements(sources) == []


def test_assert_check_finds_leftovers():
    sources = {
        "a.py": "x = 1\nassert x == 1, 'one'\n",
        "b.py": "def f(y):\n    if y:\n        assert y > 0\n    return 'assert'\n",
    }
    assert assert_statements(sources) == ["a.py: 2", "b.py: 3"]


# The makers of the only instances built without the constructor's checks,
# each with the reason its data needs none
TRUSTED_BUILDERS = [
    "generate.py: make_instance",  # draws sorted lists from range(space_size)
    "graphs.py: _canonical_instance",  # the loader, after its one-pass check
    "oldc_basic.py: _single_defect_instance",  # inputs checked at the public entries
]


def trusted_callers(sources: dict[str, str]) -> list[str]:
    """One "module: maker" entry per call of ``_trusted``, the maker named
    as by ``config_builders``."""
    return sorted(
        f"{module}: {owner}"
        for module, source in sources.items()
        for owner in config_builders(source, "_trusted")
    )


def test_only_the_named_makers_skip_the_instance_checks():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert trusted_callers(sources) == TRUSTED_BUILDERS


def test_trusted_caller_check_finds_leftovers():
    sources = {
        "a.py": (
            "from . import graphs\n"
            "def load(doc):\n"
            "    return graphs.LdcInstance._trusted(doc, (), (), 'oriented', 0)\n"
            "class Maker:\n"
            "    def make(self):\n"
            "        return _trusted((), (), (), 'defective', 0)\n"
        ),
        "b.py": "x = _trusted((), (), (), 'oriented', 0)\ny = LdcInstance.build([], [], [])\n",
    }
    assert trusted_callers(sources) == ["a.py: Maker", "a.py: load", "b.py: <module>"]


NETWORK_FIELDS = ("bits_per_message", "record_messages")


def _name_of(node: ast.expr):
    """The name a plain or dotted reference ends in, or None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def network_settings(sources: dict[str, str]) -> list[str]:
    """Every place that declares or passes a network field: a dataclass
    field of that name, or a keyword of that name in a call of ``run``."""
    found = []
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.ClassDef) and _is_dataclass(n):
                found.extend(
                    f"{module}: {n.name}.{stmt.target.id}"
                    for stmt in n.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.target.id in NETWORK_FIELDS
                )
            elif isinstance(n, ast.Call) and _name_of(n.func) == "run":
                found.extend(
                    f"{module}: run({k.arg}=...) line {n.lineno}"
                    for k in n.keywords if k.arg in NETWORK_FIELDS
                )
    return sorted(found)


def test_only_the_network_setting_holds_the_budget_and_the_record():
    # the budget and the message record belong to the network model: one
    # setting that every engine run reads, not a field of some configs
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert network_settings(sources) == [
        "runtime.py: Network.bits_per_message",
        "runtime.py: Network.record_messages",
    ]


def test_network_setting_check_finds_leftovers():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass\n"
            "class Config:\n"
            "    alpha: float = 1.0\n"
            "    bits_per_message: int = 0\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Other:\n"
            "    record_messages: bool = False\n"
            "class Plain:\n"
            "    bits_per_message: int = 0\n"
        ),
        "b.py": (
            "from . import runtime\n"
            "def go(g, p, config):\n"
            "    run(g, p, max_rounds=4, record_messages=True)\n"
            "    runtime.run(g, p, bits_per_message=config.bits_per_message)\n"
            "    other(g, bits_per_message=3)\n"
        ),
    }
    assert network_settings(sources) == [
        "a.py: Config.bits_per_message",
        "a.py: Other.record_messages",
        "b.py: run(bits_per_message=...) line 4",
        "b.py: run(record_messages=...) line 3",
    ]


def broadcast_users(sources: dict[str, str]) -> list[str]:
    """One "module: line" entry per call of ``broadcast``, plain or as an
    attribute, and per import of the name, which could call it renamed."""
    found = []
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call) and _name_of(n.func) == "broadcast" or (
                isinstance(n, ast.ImportFrom) and any(a.name == "broadcast" for a in n.names)
            ):
                found.append(f"{module}: {n.lineno}")
    return sorted(found)


def test_only_the_round_driver_calls_broadcast():
    # every algorithm prices its rounds through runtime.Rounds, which
    # numbers them in the composed run; a direct call would number and
    # trim rounds by rules of its own
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "runtime.py"}
    assert broadcast_users(sources) == []


def test_broadcast_user_check_finds_leftovers():
    sources = {
        "a.py": (
            "from . import runtime\n"
            "def go(g, sent):\n"
            "    runtime.broadcast(g, sent)\n"
            "    rounds.send(sent)\n"
            "    return 'broadcast'\n"
        ),
        "b.py": "from .runtime import Rounds, broadcast as price\nprice(g, {})\n",
        "c.py": "def broadcast(g, sent):\n    pass\nbroadcast(g, {})\nx = broadcast\n",
    }
    assert broadcast_users(sources) == ["a.py: 3", "b.py: 1", "c.py: 3"]


def argument_parsers(sources: dict[str, str]) -> list[str]:
    """One "module: maker" entry per call of ``ArgumentParser``, plain or
    as an attribute, with or without arguments, the maker named as by
    ``config_builders``."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            found.extend(
                f"{module}: {owner}" for n in ast.walk(stmt)
                if isinstance(n, ast.Call) and _name_of(n.func) == "ArgumentParser"
            )
    return sorted(found)


def test_the_cli_parser_is_built_in_one_cached_place():
    # `cli._parser` is built once per process; a parser built in `main`
    # would cost every in-process call its construction again
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert argument_parsers(sources) == ["cli.py: _parser"]


def test_argument_parser_check_finds_leftovers():
    sources = {
        "a.py": (
            "import argparse\n"
            "def _parser():\n"
            "    return argparse.ArgumentParser(prog='x')\n"
            "def main(argv):\n"
            "    parser = argparse.ArgumentParser()\n"
            "    return parser.parse_args(argv)\n"
            "def _add(sp: argparse.ArgumentParser):\n"
            "    sp.add_argument('--n')\n"
        ),
        "b.py": (
            "from argparse import ArgumentParser\n"
            "PARSER = ArgumentParser(prog='b')\n"
            "class Cli:\n"
            "    def parser(self):\n"
            "        return ArgumentParser()\n"
        ),
    }
    assert argument_parsers(sources) == [
        "a.py: _parser", "a.py: main", "b.py: <module>", "b.py: Cli",
    ]


def unset_fields(sources: dict[str, str], cls: str) -> list[str]:
    """The fields of class ``cls`` that nothing sets outside the class: by
    a keyword of a ``cls(...)`` call, an assignment to an attribute of the
    field's name, or ``append``/``extend`` on such an attribute."""
    fields: list[str] = []
    set_names: set[str] = set()
    for source in sources.values():
        tree = ast.parse(source)
        inside: set[int] = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.ClassDef) and n.name == cls:
                fields.extend(
                    stmt.target.id for stmt in n.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
                inside.update(map(id, ast.walk(n)))
        for n in ast.walk(tree):
            if id(n) in inside:
                continue
            if isinstance(n, ast.Call) and _name_of(n.func) == cls:
                set_names.update(k.arg for k in n.keywords)
            elif isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                set_names.update(t.attr for t in targets if isinstance(t, ast.Attribute))
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in ("append", "extend")
                  and isinstance(n.func.value, ast.Attribute)):
                set_names.add(n.func.value.attr)
    return [f for f in fields if f not in set_names]


def test_every_trace_field_is_set_in_src():
    # a trace field that nothing sets is written to every trace.json as
    # its default, and reads as a measurement
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unset_fields(sources, "RoundTrace") == []


def test_unset_field_check_finds_leftovers():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Rec:\n"
            "    built: int = 0\n"
            "    assigned: int = 0\n"
            "    appended: list = None\n"
            "    extended: list = None\n"
            "    only_inside: int = 0\n"
            "    never: int = 0\n"
            "    def reset(self):\n"
            "        self.only_inside = 0\n"
            "        Rec(never=1)\n"
        ),
        "b.py": (
            "def go(rec):\n"
            "    Rec(built=1)\n"
            "    Other(never=1)\n"
            "    rec.assigned = 2\n"
            "    rec.appended.append(3)\n"
            "    rec.extended.extend([4])\n"
            "    only_inside = 5\n"
        ),
    }
    assert unset_fields(sources, "Rec") == ["only_inside", "never"]


def sweep_key_table(readme: str) -> dict[str, str]:
    """The README's sweep-key table: key -> the first backquoted value of
    its default cell.  Each row holds two (key, default) pairs."""
    lines = readme.splitlines()
    start = lines.index("| key | default | key | default |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        for key, default in zip(cells[::2], cells[1::2]):
            if key:
                table[key.strip("`")] = re.match(r"`([^`]*)`", default).group(1)
    return table


def sweep_table_mismatches(readme: str, options: dict) -> list[str]:
    """Keys whose README default is missing, extra or not the JSON form
    of the option's default."""
    documented = sweep_key_table(readme)
    wanted = {name: json.dumps(default) for name, (_, default, _) in options.items()}
    return sorted(
        f"{key}: README {documented.get(key, 'missing')}, CLI {wanted.get(key, 'missing')}"
        for key in documented.keys() | wanted.keys()
        if documented.get(key) != wanted.get(key)
    )


def test_readme_sweep_table_matches_the_cli_options():
    options = {**cli.RUN_OPTIONS, **cli.INSTANCE_OPTIONS}
    assert sweep_table_mismatches(README.read_text(), options) == []


def test_sweep_table_check_finds_leftovers():
    readme = (
        "A sweep matrix:\n\n"
        "| key | default | key | default |\n"
        "|---|---|---|---|\n"
        "| `alpha` | `1.0` | `degree` | `4` |\n"
        "| `max_rounds` | `10000` | `flavor` | `\"oriented\"` (or more) |\n"
        "| `inner` | `\"oracle\"` | | |\n"
        "\n"
        "| `ignored` | `0` |\n"
    )
    options = {
        "alpha": (float, 1.0, None),
        "degree": (int, 4, None),
        "flavor": (str, "defective", ("defective", "oriented")),
        "inner": (str, "oracle", None),
        "r": (int, None, None),
    }
    assert sweep_table_mismatches(readme, options) == [
        'flavor: README "oriented", CLI "defective"',
        "max_rounds: README 10000, CLI missing",
        "r: README missing, CLI null",
    ]
