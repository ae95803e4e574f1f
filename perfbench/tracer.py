"""Outside-in tracing of matlislab, from the benchmark's side.

The tracer wraps the public functions of each layer module, the methods
``FModule.action_of`` and ``FModule.generator_actions``, and the
row-reduction kernels ``rref_int``/``rref_fp`` wherever they live.  It
replaces every binding of a wrapped function across the ``matlislab.*``
namespaces, because callers import names (``from .modules import
hom_space``) and patching the defining module alone would miss them.

Each wrapped call is a span.  A span's self time is its duration minus
the durations of its child spans, so self times partition the traced
wall time.  Scalar arithmetic is too fine-grained to time: calls to the
field objects' methods and to ``Fraction`` dunders are counted instead.

Functions that a future version of the package removes are simply not
found; their metrics are then absent.
"""

import importlib
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("linalg", "algebra", "modules", "classes", "duality", "ext", "randmod")
# the row-reduction kernels, also under the private names they may take
# when folded into linalg
KERNEL_NAMES = ("rref_int", "rref_fp", "_rref_int", "_rref_fp")
METHODS = (("modules", "FModule", ("action_of", "generator_actions")),)
EXTRA = (("fixtures", "fixture_from_dict"),)
FIELD_CLASSES = ("RationalField", "PrimeField")
FIELD_METHODS = ("add", "sub", "mul", "neg", "inv", "of")
FRACTION_UNCOUNTED = frozenset(
    ("__new__", "__repr__", "__str__", "__reduce__", "__copy__", "__deepcopy__")
)
# gamma and kappa take a shortcut when they return without solving a
# Hom system; a call is a shortcut when no hom_space span is its child
SHORTCUT_SPANS = ("classes.gamma", "classes.kappa")


def _rref_shape(rows):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows <= 16 and ncols <= 8:
        return "linalg.rref.shape.le16x8"
    if nrows <= 64 and ncols <= 32:
        return "linalg.rref.shape.le64x32"
    return "linalg.rref.shape.over64x32"


class Tracer:
    """Spans and counters over one process's matlislab modules.

    ``install()`` patches every binding, ``uninstall()`` restores them;
    statistics accumulate across installs until ``reset()``.
    """

    def __init__(self):
        self._patches = []  # (owner, attribute, original, replacement)
        self._stack = []  # open spans: [start, child time, saw hom_space]
        self.spans = {}  # name -> [calls, self seconds, total seconds]
        self.counts = {}
        self.distinct = {"algebra.minimal_generators": {}, "modules.generator_actions": {}}
        self.names = set()  # span names of the wrapped functions
        self._discover()

    def reset(self):
        """Drop all statistics; the wrappers keep writing to the same dicts."""
        self.spans.clear()
        self.counts.clear()
        for keys in self.distinct.values():
            keys.clear()

    # -- spans ----------------------------------------------------------

    def span(self, name):
        """Context manager recording one span opened by the benchmark."""
        return _Span(self, name)

    def _open(self):
        frame = [time.perf_counter(), 0.0, False]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame):
        dur = time.perf_counter() - frame[0]
        stack = self._stack
        stack.pop()
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur - frame[1]
        rec[2] += dur
        if stack:
            stack[-1][1] += dur
            if name == "modules.hom_space":
                stack[-1][2] = True
        if name in SHORTCUT_SPANS and not frame[2]:
            self.count(name + ".shortcuts")

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name, fn, hook=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            frame = open_()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame)

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- hooks that count what a call works on ---------------------------

    def _hook_rref(self, args):
        rows = args[0]
        if hasattr(rows, "__len__"):
            self.count(_rref_shape(rows))

    # distinct ideals are told apart by value, as a memo keyed on the Ideal
    # would; distinct modules by object, as a memo stored on the module would
    def _hook_minimal_generators(self, args):
        ideal = args[0]
        self.distinct["algebra.minimal_generators"][(id(ideal.parent), ideal.basis_matrix)] = None

    def _hook_generator_actions(self, args):
        module = args[0]
        # holding the module keeps its id from being reused
        self.distinct["modules.generator_actions"][id(module)] = module

    def _hook_hom_space(self, args):
        self.count("modules.hom_space.unknowns", args[0].dim * args[1].dim)

    # -- discovery and patching ------------------------------------------

    def _namespaces(self):
        for layer in LAYERS + ("fields", "fixtures"):
            try:
                importlib.import_module("matlislab." + layer)
            except ImportError:
                pass  # a layer the package no longer has
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "matlislab" or name.startswith("matlislab."))
        ]

    def _discover(self):
        hooks = {
            "linalg.rref": self._hook_rref,
            "algebra.minimal_generators": self._hook_minimal_generators,
            "modules.generator_actions": self._hook_generator_actions,
            "modules.hom_space": self._hook_hom_space,
        }
        namespaces = self._namespaces()
        by_name = {mod.__name__: mod for mod in namespaces}
        targets = {}  # id(original) -> (original, span name)

        def add(obj, name):
            if id(obj) not in targets:
                targets[id(obj)] = (obj, name)
                self.names.add(name)

        for mod in namespaces:
            for kname in KERNEL_NAMES:
                fn = vars(mod).get(kname)
                if callable(fn):
                    add(fn, "kernels." + kname.lstrip("_"))
        for layer in LAYERS:
            mod = by_name.get("matlislab." + layer)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    add(obj, "%s.%s" % (layer, attr))
        for layer, attr in EXTRA:
            obj = getattr(by_name.get("matlislab." + layer), attr, None)
            if obj is not None:
                add(obj, "%s.%s" % (layer, attr))

        wrappers = {
            key: (obj, self._wrap(name, obj, hooks.get(name)))
            for key, (obj, name) in targets.items()
        }
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val, hit[1]))

        for layer, cls_name, methods in METHODS:
            cls = getattr(by_name.get("matlislab." + layer), cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is not None:
                    name = "%s.%s" % (layer, meth)
                    self.names.add(name)
                    self._patches.append((cls, meth, fn, self._wrap(name, fn, hooks.get(name))))

        fields = by_name.get("matlislab.fields")
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name, None)
            for meth in FIELD_METHODS:
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is not None:
                    self._patches.append((cls, meth, fn, self._counter("fields.calls", fn)))
        for attr, fn in list(vars(Fraction).items()):
            if (
                attr.startswith("__")
                and attr not in FRACTION_UNCOUNTED
                and inspect.isfunction(fn)
            ):
                self._patches.append(
                    (Fraction, attr, fn, self._counter("fields.fraction_ops", fn))
                )

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @property
    def wrapped(self):
        return len(self._patches)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.frame)
        return False
