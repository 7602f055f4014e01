"""Spans recorded from outside the program, by wrapping module attributes.

A `Tracer` replaces chosen functions with timing wrappers on every module
attribute bound to them, so a caller that looks the function up by name
(``engine.build_system``, or ``gradients.vterm_rows`` imported from
``bounds``) reaches the wrapper.  `Tracer.remove` puts every original
back.  Spans stay in memory as ``[name, start, end, parent, attrs]``
lists and are summarised or written out at the end.

This module uses only the standard library so it can be tested without
the program.
"""

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

_MARK = "__perfbench_span__"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr``, reported as ``span`` (or by `namer`)."""

    module: str
    attr: str
    span: str
    namer: Optional[Callable] = None  # (args, kwargs) -> span name
    observe: Optional[Callable] = None  # (args, kwargs, result) -> attrs dict
    everywhere: bool = True  # False: wrap only the binding in `module`


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []
        self._seen_exc = None
        self._failed_span = None  # innermost span that _seen_exc left

    # -- benchmark-owned spans ---------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        rec = self.spans[idx]
        rec[2] = self.clock()
        if attrs:
            rec[4] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        except BaseException as exc:
            self.close(idx, {"error": type(exc).__name__})
            raise
        self.close(idx)

    def last_span(self, exc=None):
        """Innermost span `exc` came out of, else the span opened last."""
        if exc is not None and exc is self._seen_exc:
            return self._failed_span
        return self.spans[-1][0] if self.spans else None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.span
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, {"error": type(exc).__name__})
                if exc is not tracer._seen_exc:
                    tracer._seen_exc = exc
                    tracer._failed_span = name
                raise
            tracer.close(idx)
            if target.observe is not None:
                tracer.spans[idx][4] = target.observe(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, target.span)
        return wrapper

    def install(self, modules, targets):
        """Wrap each target on every attribute of `modules` bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_name = {m.__name__: m for m in modules}
        try:
            for t in targets:
                original = getattr(by_name[t.module], t.attr)
                if hasattr(original, _MARK):
                    raise RuntimeError("%s.%s is already wrapped" % (t.module, t.attr))
                wrapper = self._wrap(original, t)
                for mod in modules if t.everywhere else [by_name[t.module]]:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def dump(self, path, meta=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta or {}, "spans": self.spans}, fh)


def wrapped_attributes(modules):
    """Names of module attributes that are still tracing wrappers."""
    return [
        "%s.%s" % (mod.__name__, key)
        for mod in modules
        for key, val in vars(mod).items()
        if hasattr(val, _MARK)
    ]


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length([(spans[c][1], spans[c][2]) for c in children[i]], s[1], s[2])
        out.append(max(0.0, (s[2] - s[1]) - covered))
    return out


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0
    durations: list = field(default_factory=list)
    attrs: list = field(default_factory=list)


def summarize(spans):
    """Per-name call count, self time, durations, failures and attributes."""
    stats = {}
    for s, self_s in zip(spans, self_times(spans)):
        st = stats.setdefault(s[0], SpanStats())
        st.calls += 1
        st.self_s += self_s
        st.durations.append(s[2] - s[1])
        if s[4]:
            if "error" in s[4]:
                st.failed += 1
            st.attrs.append(s[4])
    return stats
