"""Per-layer tracing of a2w from the benchmark's own files.

``install`` replaces the public functions of each a2w module, in every
module namespace that callers look them up in, with wrappers that time
or count the call. Nothing inside the package changes: the wrappers sit
on the names, so a function bound in three modules (``adaptive_quad`` in
estimator, type2 and verify) is wrapped three times under one metric name.

Spans carry name, start, end, parent and op id. A span's self time is its
duration minus the time its children cover: children on the same thread
are subtracted by duration, children that ran on a pool thread while the
parent waited are subtracted by the union of their intervals. Hot tiny
functions keep no span, only their totals, and the hottest are counted
without a clock read. Spans stay in memory, capped, and are written by
``Tracer.dump`` when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from time import perf_counter

_SPAN_CAP = 50_000


def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Frame:
    __slots__ = ("name", "start", "child", "cross", "span_id")

    def __init__(self, name: str, span_id: int | None):
        self.name = name
        self.span_id = span_id
        self.child = 0.0
        self.cross: list[tuple[float, float]] = []
        self.start = 0.0


class _ThreadState:
    """One thread's span stack and totals; merged when metrics are read."""

    __slots__ = ("stack", "calls", "self_s", "incl_s", "counts")

    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}


class Tracer:
    """Span and counter store shared by the wrappers of one traced run.

    Totals are kept per thread, so the hot path takes no lock; a list
    append (spans, cross-thread children) is atomic in CPython.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.refining = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._root: list[_Frame] = []
        self._ids = itertools.count()

    # ------------------------------------------------------------ bookkeeping
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _merged(self, attr: str) -> dict:
        out: dict = {}
        for st in self._states:
            for k, v in getattr(st, attr).items():
                out[k] = out.get(k, 0) + v
        return out

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def timed(self, name: str, fn, keep: bool = True, tally=None):
        """Wrap fn in a span; keep=False records totals only (hot functions)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent = stack[-1] if stack else (self._root[-1] if self._root else None)
            frame = _Frame(name, next(self._ids) if keep else None)
            if tally is not None:
                tally(self, args)
            stack.append(frame)
            frame.start = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame.child
                if frame.cross:
                    own -= _union(frame.cross)
                st.calls[name] = st.calls.get(name, 0) + 1
                st.self_s[name] = st.self_s.get(name, 0.0) + own
                st.incl_s[name] = st.incl_s.get(name, 0.0) + dur
                if stack:
                    stack[-1].child += dur
                elif parent is not None:
                    parent.cross.append((start, end))
                if keep:
                    if len(self.spans) < _SPAN_CAP:
                        self.spans.append((frame.span_id, name, start, end,
                                           parent.span_id if parent else None,
                                           self.op_id, threading.get_ident()))
                    else:
                        self.count("trace.spans_dropped")
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one op under the root span ``cli.op`` on the calling thread."""
        self.op_id = op_id
        self._root = self._state().stack
        return self.timed("cli.op", fn)(*args)

    # --------------------------------------------------------------- search
    def _search(self, fn, evaluate_name: str):
        """run_interval_search, with the evaluate callable it is passed traced."""
        timed_search = self.timed("search.run_interval_search", fn)

        @functools.wraps(fn)
        def wrapper(evaluate, *args, **kwargs):
            best = {"grid": -math.inf, "refine": -math.inf}
            timed_eval = self.timed(evaluate_name, evaluate, keep=False)

            def traced(iv):
                val = timed_eval(iv)
                phase = "refine" if self.refining else "grid"
                self.count("search.evaluations")
                if phase == "refine":
                    self.count("search.refine_evaluations")
                with self._lock:
                    best[phase] = max(best[phase], float(val))
                return val

            result = timed_search(traced, *args, **kwargs)
            self.count("search.searches")
            if best["refine"] > best["grid"]:
                self.count("search.refine_wins")
            return result
        return wrapper

    def _refine(self, name: str, fn):
        timed = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.refining = True
            try:
                return timed(*args, **kwargs)
            finally:
                self.refining = False
        return wrapper

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every traced binding in the a2w modules; call once per process."""
        import numpy as np
        from a2w import (cli, estimator, linalg, multivar, quadrature, scalar_power,
                         search, type1, type2, verify)

        def unitary_nodes(tracer, args):  # unitary_stack(family, n, xs)
            tracer.count("type2.unitary_stack.nodes", int(np.size(args[2])))

        setattr(cli, "load_weight_spec", self.timed("cli.parse", cli.load_weight_spec))
        timed_estimate = self.timed("estimator.estimate_a2", estimator.estimate_a2)
        setattr(cli, "estimate_a2", timed_estimate)
        setattr(estimator, "estimate_a2", timed_estimate)
        search_wrapper = self._search(search.run_interval_search, "estimator.evaluate")
        setattr(estimator, "run_interval_search", search_wrapper)
        setattr(search, "run_interval_search", search_wrapper)
        setattr(search, "golden_max", self._refine("search.refine", search.golden_max))
        for name in ("average_symbolic", "average_numeric"):
            setattr(estimator, name,
                  self.timed(f"estimator.{name}", getattr(estimator, name), keep=False))

        for name in ("as_hermitian", "sqrt_psd", "operator_norm", "sym_eigen", "lu_det"):
            setattr(linalg, name, self.timed(f"linalg.{name}", getattr(linalg, name),
                                           keep=False))
        setattr(linalg, "cofactor", self.counted("linalg.cofactor", linalg.cofactor))

        abs_pow = self.counted("scalar_power.average_abs_pow", scalar_power.average_abs_pow)
        for module in (scalar_power, estimator, multivar):
            setattr(module, "average_abs_pow", abs_pow)

        quad = self.timed("quadrature.adaptive_quad", quadrature.adaptive_quad)
        for module in (quadrature, estimator, type2, verify):
            setattr(module, "adaptive_quad", quad)

        for name in ("check_a2", "symbolic_inverse", "a2_upper_bound"):
            setattr(type1, name, self.timed(f"type1.{name}", getattr(type1, name)))

        setattr(type2, "decide_a2", self.timed("type2.decide_a2", type2.decide_a2))
        setattr(type2, "divergence_experiment",
              self.timed("type2.divergence_experiment", type2.divergence_experiment))
        setattr(type2, "unitary_stack",
              self.timed("type2.unitary_stack", type2.unitary_stack, keep=False,
                         tally=unitary_nodes))

        for name in ("check_a2_type1a", "check_a2_type1b"):
            setattr(multivar, name, self.timed("multivar.check_a2", getattr(multivar, name)))
        setattr(multivar, "estimate_a2_cubes",
              self.timed("multivar.estimate_a2_cubes", multivar.estimate_a2_cubes))
        for name in ("average_type1a", "average_type1b"):
            setattr(multivar, name, self.timed(f"multivar.{name}", getattr(multivar, name),
                                             keep=False))
        setattr(multivar, "cube_integral_radial",
              self.timed("multivar.cube_integral_radial", multivar.cube_integral_radial,
                         keep=False))
        setattr(multivar, "golden_max", self._refine("multivar.refine", multivar.golden_max))
        for name in ("a2_functional_trace", "a2_functional_norm"):
            setattr(multivar, name, self.timed("multivar.functional", getattr(multivar, name),
                                             keep=False))

        run_module = verify.run_module

        @functools.wraps(run_module)
        def verify_module(module, *args, **kwargs):
            return self.timed(f"verify.{module}", run_module)(module, *args, **kwargs)
        setattr(verify, "run_module", verify_module)

    # -------------------------------------------------------------- metrics
    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass: name -> (value, unit)."""
        totals = {attr: self._merged(attr) for attr in ("calls", "self_s", "incl_s", "counts")}
        counts = totals["counts"]

        def calls(name):
            return totals["calls"].get(name, 0) / passes

        def own(name):
            return totals["self_s"].get(name, 0.0) / passes

        def incl(name):
            return totals["incl_s"].get(name, 0.0) / passes

        def count(name):
            return counts.get(name, 0) / passes

        m: dict[str, tuple[float, str]] = {
            "cli.parse.s": (incl("cli.parse"), "s"),
            "cli.self.s": (own("cli.op"), "s"),
            "search.run_interval_search.s": (own("search.run_interval_search"), "s"),
            "search.grid.s": (incl("search.run_interval_search") - incl("search.refine"), "s"),
            "search.refine.s": (incl("search.refine"), "s"),
            "search.evaluations": (count("search.evaluations"), "count"),
            "search.refine_evaluations": (count("search.refine_evaluations"), "count"),
            "search.refine_yield": (
                counts.get("search.refine_wins", 0) / counts["search.searches"]
                if counts.get("search.searches") else 0.0, "fraction"),
            "estimator.estimate_a2.s": (own("estimator.estimate_a2"), "s"),
        }
        for name in ("average_symbolic", "average_numeric"):
            m[f"estimator.{name}.calls"] = (calls(f"estimator.{name}"), "count")
            m[f"estimator.{name}.s"] = (own(f"estimator.{name}"), "s")
        m["estimator.functional.calls"] = (
            calls("estimator.evaluate") + calls("multivar.functional"), "count")
        m["estimator.functional.s"] = (
            own("estimator.evaluate") + own("multivar.functional"), "s")
        for name in ("as_hermitian", "sqrt_psd", "operator_norm", "sym_eigen", "lu_det"):
            m[f"linalg.{name}.calls"] = (calls(f"linalg.{name}"), "count")
            m[f"linalg.{name}.s"] = (own(f"linalg.{name}"), "s")
        m["linalg.cofactor.calls"] = (count("linalg.cofactor"), "count")
        m["scalar_power.average_abs_pow.calls"] = (
            count("scalar_power.average_abs_pow"), "count")
        quad_calls = calls("quadrature.adaptive_quad")
        panels = calls("type2.unitary_stack")
        m["quadrature.adaptive_quad.calls"] = (quad_calls, "count")
        m["quadrature.adaptive_quad.s"] = (own("quadrature.adaptive_quad"), "s")
        m["quadrature.panels"] = (panels, "count")
        m["quadrature.panels_per_call"] = (panels / quad_calls if quad_calls else 0.0,
                                           "panels/call")
        m["type1.check_a2.calls"] = (calls("type1.check_a2"), "count")
        m["type1.check_a2.s"] = (own("type1.check_a2"), "s")
        m["type1.symbolic_inverse.s"] = (own("type1.symbolic_inverse"), "s")
        m["type1.a2_upper_bound.s"] = (own("type1.a2_upper_bound"), "s")
        m["type2.decide_a2.s"] = (own("type2.decide_a2"), "s")
        m["type2.unitary_stack.calls"] = (panels, "count")
        m["type2.unitary_stack.nodes"] = (count("type2.unitary_stack.nodes"), "count")
        m["type2.unitary_stack.s"] = (own("type2.unitary_stack"), "s")
        m["type2.divergence_experiment.s"] = (own("type2.divergence_experiment"), "s")
        m["multivar.check_a2.s"] = (own("multivar.check_a2"), "s")
        m["multivar.estimate_a2_cubes.s"] = (own("multivar.estimate_a2_cubes"), "s")
        m["multivar.cube_evaluations"] = (calls("multivar.functional"), "count")
        for name in ("average_type1a", "average_type1b", "cube_integral_radial"):
            m[f"multivar.{name}.calls"] = (calls(f"multivar.{name}"), "count")
            m[f"multivar.{name}.s"] = (own(f"multivar.{name}"), "s")
        m["multivar.refine.s"] = (incl("multivar.refine"), "s")
        for module in ("linalg", "type1", "type2", "multivar"):
            m[f"verify.{module}.s"] = (incl(f"verify.{module}"), "s")
        return m

    def dump(self, path: str, header: dict) -> None:
        """Write the header, totals and kept spans as one JSON document."""
        doc = dict(header)
        doc.update({attr: self._merged(attr)
                    for attr in ("calls", "self_s", "incl_s", "counts")})
        doc.update({"span_fields": ["id", "name", "start", "end", "parent", "op", "thread"],
                    "spans": self.spans})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
