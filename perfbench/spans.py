"""In-memory span tracer that wraps functions from outside the program.

A target is a function named by its defining module and qualified name,
such as ``("cdx.product", "cd_product")`` or
``("cdx.matroid", "Matroid.relax")``.  A module-level function is
replaced at every binding of it in the package's loaded modules,
because modules import hot functions by name (``engine`` and
``cuspidal`` bind ``cd_product`` and ``cd_hypersimplex`` directly).
A method is replaced in its class's dictionary, keeping its
classmethod or staticmethod wrapper.

Spans are appended to a list as ``(name, start, end, parent)`` with
``parent`` the index of the enclosing span or -1.  The tracer keeps one
call stack, so it is meant for single-threaded runs.  A target the
program lacks is skipped and listed in ``missing``, so a renamed
function reads as zero calls instead of stopping the run.
"""

import functools
import importlib
import sys
import time


class Tracer:
    def __init__(self, package, targets, hooks=None, clock=time.perf_counter):
        """``hooks`` maps a span name to ``hook(args, kwargs)``, called
        before the wrapped call; it may return ``done(result)``, called
        after the call returns."""
        self.package = package
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original value)
        self.missing = []  # targets the program does not have

    @staticmethod
    def span_name(module, qualname):
        """``cdx.product`` + ``cd_product`` -> ``product.cd_product``."""
        return "%s.%s" % (module.rsplit(".", 1)[-1], qualname)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for module, qualname in self.targets:
                try:
                    self._install_one(module, qualname)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append((module, qualname))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _install_one(self, module, qualname):
        name = self.span_name(module, qualname)
        mod = importlib.import_module(module)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(mod, qualname)
        wrapped = self._wrap(name, original)
        prefix = self.package + "."
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, attr, original))
                    setattr(other, attr, wrapped)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        hook = self.hooks.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = hook(args, kwargs) if hook is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if done is not None:
                done(result)
            return result

        return traced


def self_times(spans):
    """Aggregate spans into ``{name: (calls, self seconds)}``.

    A span's self time is its duration minus the durations of its direct
    children; children are nested inside their parent, so this is the
    part of the parent's interval that no child covers.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, _parent) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[idx])
    return out
