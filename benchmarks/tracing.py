"""Span tracing of qcap, installed from outside the package.

`Tracer.install()` wraps every public function of each qcap module under
every name a qcap module binds it to (``qcap.erasure.partial_trace`` as well
as ``qcap.linalg.partial_trace``, and the values of module-level dicts such
as ``qcap.cli.LEMMA_CHECKS``), the validating ``__post_init__`` of the value
classes, the ``numpy.linalg`` factorizations that qcap calls through
``np.linalg``, and the optimizer that ``qcap.erasure`` binds as ``minimize``.
Each call records one span (name, parent span, start, end) in flat arrays;
nothing is written until the run ends.  `Tracer.close()` restores every
binding it replaced.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("linalg", "states", "channels", "functionals", "erasure", "continuity", "elimination", "cli")
CLASS_INITS = (("states", "DensityMatrix"), ("states", "PureState"), ("channels", "KrausChannel"))
METHODS = (("states", "DensityMatrix", "entropy"), ("states", "DensityMatrix", "reduced"))
KERNELS = ("eigh", "eigvalsh", "qr", "svd")
LEMMA_FUNCTIONS = {
    "fannes": "continuity.check_fannes",
    "lemma1": "continuity.check_pure_overlap_continuity",
    "lemma2": "continuity.check_mixed_overlap_continuity",
    "mixing": "continuity.check_mixing_bounds",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_call=None, on_return=None):
        nid = self._name_id(name)
        stack, name_idx, parent, start, end = self._stack, self.name_idx, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value):
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qcap.{layer}") for layer in MODULES}
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, *hooks.get(name, (None, None)))
        optimizer = getattr(modules["erasure"], "minimize", None)
        if optimizer is not None:
            wrapped[optimizer] = self.wrap("erasure.minimize", optimizer, None, self._count_nfev)
        for mod in [importlib.import_module("qcap"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._patch_item(obj, key, wrapped[value])
        for layer, cls_name in CLASS_INITS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "__post_init__", self.wrap(f"{layer}.{cls_name}", cls.__post_init__))
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        for kernel in KERNELS:
            on_call = self._count_n3 if kernel.startswith("eig") else None
            self._patch(np.linalg, kernel, self.wrap(f"kernel.{kernel}", getattr(np.linalg, kernel), on_call))

    def close(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()

    # counters measured at the boundaries where the work happens

    def _hooks(self):
        return {
            "channels.tensor_power": (None, self._count_kraus_bytes),
            "elimination.eliminate_encoder": (None, self._count_flagged),
            **{name: (self._count_trials(lemma), None) for lemma, name in LEMMA_FUNCTIONS.items()},
        }

    def _count_n3(self, args, kwargs):
        a = np.asarray(args[0])
        self.counters["kernel.eigensolves"] += math.prod(a.shape[:-2])
        self.counters["kernel.eigensolve_n3"] += math.prod(a.shape[:-2]) * a.shape[-1] ** 3

    def _count_kraus_bytes(self, result, args, kwargs):
        self.counters["channels.kraus_bytes"] += sum(a.nbytes for a in result.kraus)

    def _count_flagged(self, result, args, kwargs):
        self.counters["elimination.flagged"] += int(result.flagged)

    def _count_nfev(self, result, args, kwargs):
        self.counters["erasure.objective_evals"] += int(result.nfev)

    def _count_trials(self, lemma):
        def count(args, kwargs):
            self.counters[f"continuity.{lemma}.trials"] += int(kwargs["trials"])

        return count

    # summaries, computed after the traced region ends

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=dur, minlength=size)
        own = np.bincount(names, weights=dur - child, minlength=size)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def child_count(self, child: str, parent: str) -> int:
        """Number of `child` spans opened directly inside a `parent` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        mine = names == self._ids[child]
        inside = parents[mine]
        inside = inside[inside >= 0]
        return int(np.count_nonzero(names[inside] == self._ids[parent]))

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
