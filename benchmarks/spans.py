"""Span tracing of risplan's public functions, installed from outside.

A `Tracer` wraps each named function and binds the wrapper into every
`risplan` module namespace that holds the original, because most modules
take their dependencies with `from ... import`.  Each call records one span:
name, start, end, parent span, row id, whether an exception escaped, and for
placement and phase results their iteration count and dips.  Spans stay in
memory until `write_spans` is called.

A new row starts at every placement call (`*_deploy`) that is not nested in
another placement call, so all spans of one CSV row share a row id and
`one_sample_deploy`'s inner `heuristic_deploy` belongs to the one-sample row.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time

# Per-layer statistics read from a span list; see `layer_metrics`.
SPAN_STATS = ("calls", "s", "self_s", "errors", "iterations", "dips")


def _is_deploy(qualname: str) -> bool:
    return qualname.startswith("deployment.") and qualname.endswith("_deploy")


def _outcome(result):
    """(iterations, dips) carried by a placement or phase result, else None."""
    iterations = getattr(result, "iterations", None)
    if iterations is None:
        return None
    dips = getattr(result, "dips", None)
    return (int(iterations), None if dips is None else len(dips))


class Tracer:
    """Records spans of calls into the given `module.function` names."""

    def __init__(self, qualnames):
        self.names = sorted(set(qualnames))
        self.spans = []
        self.row = 0
        self.absent = []
        self._stack = []
        self._deploy_depth = 0

    def next_row(self) -> None:
        """Start a new row for ops that no placement call delimits."""
        self.row += 1

    def _wrap(self, nid: int, fn, opens_row: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if opens_row:
                if self._deploy_depth == 0:
                    self.row += 1
                self._deploy_depth += 1
            row = self.row
            stack.append(idx)
            result, failed = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                if opens_row:
                    self._deploy_depth -= 1
                spans[idx] = (nid, start, end, parent, row, failed, _outcome(result))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        undo = []
        self.absent = []
        for nid, qualname in enumerate(self.names):
            module_name, func_name = qualname.rsplit(".", 1)
            try:
                module = importlib.import_module(f"risplan.{module_name}")
            except ImportError:
                self.absent.append(qualname)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(nid, original, _is_deploy(qualname))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "risplan" or mod_name.startswith("risplan.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def layer_metrics(self, wanted):
        """Values of the `module.function.stat` names in `wanted`.

        `calls` counts spans, `s` sums the spans not nested in a span of the
        same name, `self_s` sums each span minus its traced children,
        `errors` counts escaped exceptions, and `iterations` / `dips` sum the
        results' counts.  Placement functions count only the span that opened
        a row.  Names whose function is absent are left out.
        """
        spans = self.spans
        names = self.names
        child_time = [0.0] * len(spans)
        for nid, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def has_ancestor(idx, pred):
            parent = spans[idx][3]
            while parent >= 0:
                if pred(spans[parent][0]):
                    return True
                parent = spans[parent][3]
            return False

        deploy_ids = {i for i, q in enumerate(names) if _is_deploy(q)}
        stats = {q: dict.fromkeys(SPAN_STATS, 0) for q in names}
        for q in names:
            stats[q]["s"] = stats[q]["self_s"] = 0.0
        for idx, (nid, start, end, parent, row, failed, outcome) in enumerate(spans):
            if nid in deploy_ids and has_ancestor(idx, deploy_ids.__contains__):
                continue
            st = stats[names[nid]]
            dur = end - start
            st["calls"] += 1
            st["self_s"] += dur - child_time[idx]
            if not has_ancestor(idx, nid.__eq__):
                st["s"] += dur
            st["errors"] += int(failed)
            if outcome is not None:
                st["iterations"] += outcome[0]
                st["dips"] += outcome[1] or 0
        out = {}
        for metric in wanted:
            qualname, stat = metric.rsplit(".", 1)
            if qualname in stats and qualname not in self.absent:
                out[metric] = stats[qualname][stat]
        return out

    def accept_counts(self):
        """(accepted, attempted) phase updates summed over optimize_phases
        spans: accepted is iterations - 1, attempted is the ZF refreshes
        directly under the span minus the initial one.  None when either
        function is absent."""
        try:
            opt = self.names.index("phase.optimize_phases")
            zf = self.names.index("phase.compute_zf_precoders")
        except ValueError:
            return None
        if {"phase.optimize_phases", "phase.compute_zf_precoders"} & set(self.absent):
            return None
        refreshes = {}
        for nid, _, _, parent, *_ in self.spans:
            if nid == zf:
                refreshes[parent] = refreshes.get(parent, 0) + 1
        accepted = attempted = 0
        for idx, (nid, *_, outcome) in enumerate(self.spans):
            if nid == opt and outcome is not None:
                accepted += outcome[0] - 1
                attempted += refreshes.get(idx, 0) - 1
        return accepted, attempted

    def write_spans(self, path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for idx, (nid, start, end, parent, row, failed, outcome) in enumerate(self.spans):
                record = {"id": idx, "name": self.names[nid], "start": start - origin,
                          "end": end - origin, "parent": parent, "row": row,
                          "error": failed}
                if outcome is not None:
                    record["iterations"] = outcome[0]
                    if outcome[1] is not None:
                        record["dips"] = outcome[1]
                handle.write(json.dumps(record) + "\n")
