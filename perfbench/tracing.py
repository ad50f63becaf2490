"""Span recorder and the wrappers that put it around each layer.

The benchmark times layers from the outside: :func:`instrument` replaces
each layer's public entry point (a module function or a class method)
with a wrapper that records one span per call and restores the original
on exit.  Nothing under ``src/`` knows it is being traced.

A span is ``(name, start, end, self time, parent, op, thread)``.  Parents
come from a per-thread stack, so spans on the server's compute threads
nest correctly; the op id comes from :data:`CURRENT_OP` (a context variable,
which asyncio tasks inherit) or, on a compute thread, from the job that
thread is running.  Spans stay in memory and are written out once, at
the end of the run.

A layer's *self* time is its span's duration minus the time its child
spans cover.  Children run on the parent's thread and nest strictly, so
the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict

CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)


class Recorder:
    """In-memory spans plus per-layer counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.maxima: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._job_ops: dict[int, object] = {}
        self._submitted: dict[int, float] = {}

    # ------------------------------------------------------------ context
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        op = getattr(self._local, "op", None)
        return op if op is not None else CURRENT_OP.get()

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    # -------------------------------------------------------------- spans
    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        frame = [name, 0.0]  # [name, child time]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            record = (
                name,
                start,
                end,
                end - start - frame[1],
                parent,
                self.current_op(),
                threading.get_ident(),
            )
            with self._lock:
                self.spans.append(record)

    def interval(self, name: str, start: float, end: float, op) -> None:
        """Record a span measured elsewhere (a queue wait between threads)."""
        with self._lock:
            self.spans.append(
                (name, start, end, end - start, None, op, threading.get_ident())
            )

    # ---------------------------------------------------------- summaries
    def busy(self, name: str) -> float:
        """Total time inside outermost ``name`` spans (recursion counted once)."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[4] != name)

    def self_time(self, name: str) -> float:
        return sum(s[3] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] != name)

    def self_by_layer(self) -> dict[str, float]:
        """Self time per span name, over spans that belong to some op."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[0] == "op" or s[5] is None:
                continue
            out[s[0]] += s[3]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "self", "parent", "op", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s)), default=str) + "\n")


# ---------------------------------------------------------------- wrappers
def import_all() -> None:
    """Import every ``repro`` module.

    A module imported after :class:`instrument` starts would bind a wrapper
    by ``from x import f`` and keep it after the wrappers are removed; and
    shard workers forked after this inherit every module instead of
    importing one on a first task inside a timed op.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _replace_everywhere(original, replacement) -> list[tuple]:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro`` module.

    Modules that did ``from x import f`` hold their own reference, so the
    function is swapped wherever that exact object is bound.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _patch_method(cls, attr: str, make) -> list[tuple]:
    original = cls.__dict__[attr]
    func = original.__func__ if isinstance(original, staticmethod) else original
    wrapped = functools.wraps(func)(make(func))
    setattr(cls, attr, staticmethod(wrapped) if isinstance(original, staticmethod) else wrapped)
    return [(cls, attr, original)]


def _patch_attr(owner, attr: str, make) -> list[tuple]:
    """Replace one module attribute (the service's own imported names)."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    return [(owner, attr, original)]


def _patch_function(original, make) -> list[tuple]:
    return _replace_everywhere(original, functools.wraps(original)(make(original)))


def _spanned(rec: Recorder, name: str, after=None):
    """A wrapper factory: span around the call, then ``after(result, args)``."""

    def make(func):
        def wrapper(*args, **kwargs):
            result = rec.span(name, func, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    return make


class instrument:
    """Context manager: wrap every traced entry point, restore on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple] = []

    def __enter__(self) -> Recorder:
        import_all()
        import repro.confidence.dissociation as dissociation
        import repro.confidence.exact as exact
        import repro.core.topk as topk
        import repro.engine.cache as cache
        import repro.engine.probdb as probdb
        import repro.server.service as service
        from repro.confidence.batch import BatchKarpLubySampler
        from repro.confidence.dnf import Dnf
        from repro.engine.cache import MemoCache
        from repro.engine.probdb import ProbDB
        from repro.engine.strategies import AutoStrategy
        from repro.server.budget import CacheBudget
        from repro.server.scheduler import FairShareScheduler
        from repro.server.service import Server
        from repro.urel.columnar import ColumnarURelation
        from repro.urel.evaluate import UEvaluator
        from repro.util.parallel import ShardExecutor

        rec = self.rec
        undo = self._undo

        def after_eval(result, args, kwargs):
            rec.count("urel.eval.rows_out", len(result[0]))

        def after_decode(result, args, kwargs):
            rec.count("urel.decode.rows", len(result))

        def after_dnf(result, args, kwargs):
            rec.count("confidence.dnf.clauses", len(result))

        def after_interval(result, args, kwargs):
            rec.count("confidence.bounds.attempts")
            rec.count("confidence.bounds.points", int(result.is_exact))

        def after_run(result, args, kwargs):
            sampler, n_trials = args[0], args[1]
            if n_trials > 0 and not sampler.is_exact:
                rec.count("confidence.sampler.trials", n_trials)

        def after_driver(report, args, kwargs):
            rec.count("core.driver.evaluations", report.evaluations)
            rec.count("core.driver.certified", report.bounds_certified)
            rec.count("core.driver.decisions", len(report.decisions))

        def after_topk(report, args, kwargs):
            rec.count("core.topk.candidates", report.candidates)
            rec.count("core.topk.bounds_decided", report.bounds_decided)
            rec.count("core.topk.total_trials", report.total_trials)
            rec.count("core.topk.full_trials", report.full_trials)

        def after_map(result, args, kwargs):
            rec.count("parallel.map.tasks", len(args[2]))

        def after_put(result, args, kwargs):
            rec.peak("engine.cache.entries", len(args[0]))

        def make_get(func):
            def wrapper(self, key):
                value = func(self, key)
                rec.count("engine.cache.misses" if value is None else "engine.cache.hits")
                return value

            return wrapper

        def make_submit(func):
            def wrapper(self, job):
                rec._submitted[job.job_id] = time.perf_counter()
                rec._job_ops[job.job_id] = rec.current_op()
                return func(self, job)

            return wrapper

        def make_dispatch(func):
            def wrapper(self):
                jobs = func(self)
                now = time.perf_counter()
                for job in jobs:
                    start = rec._submitted.pop(job.job_id, now)
                    rec.sample("server.queue.wait", now - start)
                    rec.interval("server.queue", start, now, rec._job_ops.get(job.job_id))
                return jobs

            return wrapper

        def make_execute(func):
            def wrapper(self, job):
                rec._local.op = rec._job_ops.get(job.job_id)
                try:
                    return rec.span("server.compute", func, self, job)
                finally:
                    rec._local.op = None

            return wrapper

        undo += _patch_function(probdb.parse_query, _spanned(rec, "algebra.parse"))
        undo += _patch_method(UEvaluator, "eval", _spanned(rec, "urel.eval", after_eval))
        undo += _patch_method(
            ColumnarURelation, "to_urelation", _spanned(rec, "urel.decode", after_decode)
        )
        undo += _patch_method(Dnf, "for_tuple", _spanned(rec, "confidence.dnf", after_dnf))
        undo += _patch_function(
            exact.probability_by_decomposition, _spanned(rec, "confidence.exact")
        )
        undo += _patch_function(
            dissociation.dissociation_interval,
            _spanned(rec, "confidence.bounds", after_interval),
        )
        undo += _patch_function(
            dissociation.dissociation_intervals, _spanned(rec, "confidence.bounds")
        )
        undo += _patch_method(
            BatchKarpLubySampler, "run", _spanned(rec, "confidence.sampler", after_run)
        )
        undo += _patch_method(
            ProbDB, "evaluate_with_guarantee", _spanned(rec, "core.driver", after_driver)
        )
        undo += _patch_function(topk.race_topk, _spanned(rec, "core.topk", after_topk))
        undo += _patch_method(AutoStrategy, "choose", _spanned(rec, "engine.route"))
        undo += _patch_method(MemoCache, "put", _spanned(rec, "engine.cache.put", after_put))
        undo += _patch_method(MemoCache, "get", make_get)
        undo += _patch_function(cache.approx_size, _spanned(rec, "engine.cache.sizing"))
        undo += _patch_method(ShardExecutor, "map", _spanned(rec, "parallel.map", after_map))
        undo += _patch_method(FairShareScheduler, "submit", make_submit)
        undo += _patch_method(FairShareScheduler, "dispatch", make_dispatch)
        undo += _patch_method(Server, "_execute", make_execute)
        undo += _patch_method(Server, "_open_session", _spanned(rec, "server.session.open"))
        undo += _patch_method(CacheBudget, "rebalance", _spanned(rec, "server.budget.rebalance"))
        encoders = ("encode_rows", "encode_value", "encode_report",
                    "encode_topk_report", "encode_driver_report")
        for name in encoders + ("decode_rows", "decode_value"):
            layer = "server.protocol." + name.split("_")[0]
            undo += _patch_attr(service, name, _spanned(rec, layer))
        undo += _patch_attr(service, "json", lambda module: _TimedJson(rec, module))
        return rec

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class _TimedJson:
    """Stands in for the ``json`` module inside the server's client.

    ``dumps`` is the wire encode (its output length is the wire bytes);
    ``loads`` is the wire decode.
    """

    def __init__(self, rec: Recorder, module):
        self._rec = rec
        self._module = module

    def dumps(self, obj, **kwargs):
        text = self._rec.span("server.protocol.encode", self._module.dumps, obj, **kwargs)
        self._rec.count("server.protocol.bytes", len(text.encode("utf-8")))
        return text

    def loads(self, text, **kwargs):
        return self._rec.span("server.protocol.decode", self._module.loads, text, **kwargs)
