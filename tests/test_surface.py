"""The library surface: what the benchmark traces is there, and no function
takes a parameter it never reads.

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
