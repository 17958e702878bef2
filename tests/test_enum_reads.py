"""On CPython 3.11 the enum metaclass defines ``__getattr__``, so reading a
member through its class (``CommandKind.RD``) misses the fast attribute
path and costs about ten times a module global. The per-cycle modules bind
the members once as module names (``device.RD``, ``scheduler.READ``); this
test keeps class reads out of their function bodies. Module level and
default arguments run once and may read through the class."""

import ast
import inspect

import pytest

from dramwc import checks, device, scheduler
from dramwc.device import CommandKind
from dramwc.scheduler import Mode

MEMBERS = {"CommandKind": set(CommandKind.__members__),
           "Mode": set(Mode.__members__)}


def class_reads(source: str):
    """(function, line, expression) for each ``CommandKind.<member>`` or
    ``Mode.<member>`` read in a function body."""
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.attr in MEMBERS.get(node.value.id, ())):
                yield (getattr(func, "name", "<lambda>"), node.lineno,
                       f"{node.value.id}.{node.attr}")


@pytest.mark.parametrize("module", [device, scheduler, checks],
                         ids=lambda m: m.__name__)
def test_no_function_reads_a_member_through_its_class(module):
    found = [f"{module.__name__}.{name}, line {line}: {expr}"
             for name, line, expr in class_reads(inspect.getsource(module))]
    assert not found, "read the module name instead:\n" + "\n".join(found)


def test_the_guard_sees_body_reads_only():
    source = ("def f(kind, mode=Mode.READ):\n"
              "    return kind is CommandKind.WR or (lambda: Mode.WRITE_DRAIN)\n"
              "FIRST = CommandKind.PRE\n")
    assert sorted(class_reads(source)) == [("<lambda>", 2, "Mode.WRITE_DRAIN"),
                                           ("f", 2, "CommandKind.WR"),
                                           ("f", 2, "Mode.WRITE_DRAIN")]
