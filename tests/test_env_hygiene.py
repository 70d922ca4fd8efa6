"""No module under ``src/repro`` mutates the process environment.

Settings live in ``REPRO_*`` variables that code reads (in this process
and in spawned workers); none of it writes them.  A write would leak one
command's choice into every later reader in the process and into every
child it spawns.  Copying the environment for a child process
(``dict(os.environ)``) is fine: the copy is the child's, not ours.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``os.environ`` methods that change the mapping in place.
_MUTATING_METHODS = {"pop", "update", "setdefault", "clear", "popitem"}

#: ``os`` functions that change the process environment.
_MUTATING_OS_FUNCTIONS = {"putenv", "unsetenv"}


def _is_os(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "os"


def _is_os_environ(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and _is_os(node.value)
    )


def environment_mutations(source: str):
    """``(line, description)`` for every environment write in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and _is_os_environ(node.value)
        ):
            verb = "del" if isinstance(node.ctx, ast.Del) else "assign"
            found.append((node.lineno, f"{verb} os.environ[...]"))
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            func = node.func
            if func.attr in _MUTATING_METHODS and _is_os_environ(func.value):
                found.append((node.lineno, f"os.environ.{func.attr}()"))
            elif func.attr in _MUTATING_OS_FUNCTIONS and _is_os(func.value):
                found.append((node.lineno, f"os.{func.attr}()"))
    return sorted(found)


def test_detector_flags_each_mutating_form():
    source = "\n".join(
        [
            "import os",
            "os.environ['A'] = '1'",
            "os.environ['A'] += '1'",
            "del os.environ['A']",
            "os.environ.pop('A', None)",
            "os.environ.update(A='1')",
            "os.environ.setdefault('A', '1')",
            "os.environ.clear()",
            "os.environ.popitem()",
            "os.putenv('A', '1')",
            "os.unsetenv('A')",
            # Reads and copies are not mutations.
            "env = dict(os.environ)",
            "env['A'] = '1'",
            "value = os.environ.get('A')",
            "value = os.environ['A']",
        ]
    )
    assert [line for line, _ in environment_mutations(source)] == list(
        range(2, 12)
    )


def test_src_never_mutates_environment():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in environment_mutations(
            path.read_text(encoding="utf-8")
        )
    ]
    assert not offenders, "src mutates the process environment:\n" + "\n".join(
        offenders
    )
