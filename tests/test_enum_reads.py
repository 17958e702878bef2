"""On CPython 3.11 the enum metaclass defines ``__getattr__``, so reading a
member through its class (``CommandKind.RD``) misses the fast attribute
path and costs about ten times a module global. The per-cycle modules bind
the members once as module names (``device.RD``, ``scheduler.READ``); this
test keeps class reads out of their function bodies. Module level and
default arguments run once and may read through the class.

The same guard keeps builtin ``max()`` and ``min()`` calls out of the
per-cycle functions: on CPython 3.11 a three-argument ``max()`` costs more
than the rest of ``device.earliest_ready``, where plain comparisons give
the same result."""

import ast
import inspect

import pytest

from dramwc import checks, device, scheduler, workload
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


# The functions that run once or more per visited or stepped cycle.
PER_CYCLE = {
    device: ("earliest_ready", "command_ready", "apply_command", "decompose_request"),
    scheduler: tuple(f"Controller.{name}" for name in (
        "select_command", "step", "_retire", "_dequeue", "enqueue", "update_mode",
        "_mode_due", "_switch_mode", "idle", "run")),
    checks: ("verify_selection", "first_ready"),
    # The served request's chain: a generator's re-issue, its submit, and
    # the workload's admission.
    workload: ("Workload.poll", "Workload.notify", "Workload.finished",
               "Workload.exhausted", "Workload._submit", "MshrFile.admits",
               "MshrFile.acquire", "MshrFile.release", "_Generator._submit",
               "LatencyGenerator.on_completion", "BandwidthWriteGenerator._flush_debt",
               "BandwidthWriteGenerator._emit_pair",
               "BandwidthWriteGenerator.on_completion", "StreamGenerator._emit_one",
               "StreamGenerator.on_completion"),
}


def functions(tree, prefix=""):
    """(qualified name, node) of each function defined at module level or in
    a class body, methods as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node


def builtin_extremum_calls(source: str, names):
    """(function, line, builtin) for each call of ``max`` or ``min`` by name
    in the body of one of the named functions, nested functions included."""
    for name, func in functions(ast.parse(source)):
        if name not in names:
            continue
        for node in (n for stmt in func.body for n in ast.walk(stmt)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("max", "min")):
                yield name, node.lineno, node.func.id


@pytest.mark.parametrize("module", list(PER_CYCLE), ids=lambda m: m.__name__)
def test_no_per_cycle_function_calls_builtin_max_or_min(module):
    source, names = inspect.getsource(module), PER_CYCLE[module]
    defined = {name for name, _ in functions(ast.parse(source))}
    assert set(names) <= defined, "guarded functions not found"
    found = [f"{module.__name__}.{name}, line {line}: {builtin}()"
             for name, line, builtin in builtin_extremum_calls(source, names)]
    assert not found, "compare in line instead:\n" + "\n".join(found)


def test_the_extremum_guard_sees_named_bodies_only():
    source = ("def f(a, b=max(1, 2)):\n"
              "    return max(a, b) + (lambda: min(a))()\n"
              "def g(a):\n"
              "    return max(a)\n"
              "class C:\n"
              "    def f(self, a):\n"
              "        return self.max(a) + a.min() + min(a, 0)\n"
              "LIMIT = min(3, 4)\n")
    assert sorted(builtin_extremum_calls(source, {"f", "C.f"})) == [
        ("C.f", 7, "min"), ("f", 2, "max"), ("f", 2, "min")]
