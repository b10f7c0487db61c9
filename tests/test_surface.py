"""The library surface: what the benchmark traces is there, no function
takes a parameter it never reads, no public name is there for the tests
alone, and no check is an `assert` statement, which `python -O` strips.

`benchmarks/run.py --trace 1` wraps every `module.function` that a
per-layer metric of BENCHMARK.json names.  A name it cannot find is listed
on an `absent:` line, and the run's metrics then lack that layer, so a
deleted or renamed function must first leave BENCHMARK.json.
"""

import ast
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "risplan").glob("*.py"))


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "benchmarks" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_present():
    spans = _spans_module()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"].rsplit(".", 1)[0] for m in metrics
             if m["name"].rsplit(".", 1)[-1] in spans.SPAN_STATS}
    assert names
    tracer = spans.Tracer(names)
    with tracer.installed():
        pass
    assert tracer.absent == []


def _unread_parameters(path: pathlib.Path):
    """`file:line name(param)` for each def in the file with a parameter
    that nothing in its body, nested functions included, reads."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.name}:{node.lineno} {node.name}({p})" for p in params if p not in read]
    return found


def test_no_function_takes_a_parameter_it_never_reads():
    assert SOURCES
    assert [hit for path in SOURCES for hit in _unread_parameters(path)] == []


def test_no_check_is_an_assert_statement():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# Public names that nothing in the package or the benchmark reaches, each
# kept for a stated reason.
UNREACHED_ALLOWED = {
    "harness.emit_config": "the config parser's round-trip oracle",
    "harness.scaled_distribution": "builds the scenarios of acceptance criteria 4-10",
    "phase.quantize_phases": "acceptance criterion 10 and the README's discrete-phase step",
    "rate.mmse_precoder": "the Monte-Carlo oracle of mmse_closed_form_rate",
}


def _referenced_names(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names read, or read as an attribute, anywhere in `tree` outside `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unreached_public_names() -> set:
    """`module.name` of each public top-level def or class that no other
    package module (the package's re-exports aside), no part of its own
    module outside its definition, no benchmark script and no metric of
    BENCHMARK.json refers to."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    outside = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        outside |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    outside |= {part for m in metrics for part in m["name"].split(".")}
    unreached = set()
    for module, tree in trees.items():
        others = set().union(*(_referenced_names(t) for m, t in trees.items()
                               if m not in (module, "__init__")))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in others | outside | _referenced_names(tree, node)):
                unreached.add(f"{module}.{node.name}")
    return unreached


def test_no_public_name_is_reached_by_tests_alone():
    assert _unreached_public_names() == set(UNREACHED_ALLOWED)
