"""Call spans around stabsplit's layer functions, recorded from outside the package.

The tracer replaces every binding of each listed function in every loaded
``stabsplit`` module (``cli``, ``evolve`` and ``lmg`` import functions by
name, so patching only the defining module would miss calls) and restores
the originals afterwards.  Spans are kept in flat in-memory arrays, one
entry per call, and written out once the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# <module>.<qualified name>, in the order the per-layer metrics are reported.
TRACED = (
    "cli.main",
    "pauli.PauliHamiltonian.dense_real",
    "pauli.PauliHamiltonian.from_terms",
    "lmg.build_lmg",
    "lmg.candidate_groups",
    "lmg.select_split",
    "lmg.prepare_stab_state",
    "tableau.StabilizerGroup.energy",
    "tableau.StabilizerGroup.expectation",
    "tableau.StabilizerGroup.to_statevector",
    "exact.ground_state",
    "exact.dense_ground_state",
    "metrics.sre",
    "evolve.variational_jz",
    "evolve.deformed_hf",
    "evolve.qitp_postselect",
    "adapt.run_adapt",
    "adapt.apply_ansatz",
    "adapt.PoolOperator.rotated",
    "adapt.PoolOperator.conjugate_inplace",
    "adapt.PoolOperator.generator_action",
)


class Spans:
    """Spans of one traced pass: call i has name index ``name[i]``, runs from
    ``start[i]`` to ``end[i]`` (perf_counter seconds) and was called from
    span ``parent[i]`` (-1 for a root call)."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.name)

    def summary(self, n_names: int) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self seconds per name index.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=dur - children, minlength=n_names)
        return calls, self_s


def _wrap(func, index: int, spans: Spans, stack: list[int]):
    names, parents, starts, ends = spans.name, spans.parent, spans.start, spans.end
    clock = time.perf_counter

    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = len(names)
        names.append(index)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(span)
        starts.append(clock())
        try:
            return func(*args, **kwargs)
        finally:
            ends[span] = clock()
            stack.pop()

    return traced


@dataclass
class _Target:
    label: str
    holder: object  # the defining module, or the class for a method
    attr: str
    raw: object  # the object stored in holder's namespace
    func: object  # the plain function behind raw


class Tracer:
    """Installs span-recording wrappers around the ``TRACED`` functions of ``package``."""

    def __init__(self, package: str):
        self.package = package
        self.labels = TRACED
        self._targets = []
        for label in self.labels:
            module_name, qualname = label.split(".", 1)
            holder = importlib.import_module(f"{package}.{module_name}")
            *owners, attr = qualname.split(".")
            for owner in owners:
                holder = getattr(holder, owner)
            raw = vars(holder)[attr]
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            self._targets.append(_Target(label, holder, attr, raw, func))

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _bindings(self, target: _Target):
        if isinstance(target.holder, type):
            return [(target.holder, target.attr)]
        return [
            (module, key)
            for module in self._modules()
            for key, value in vars(module).items()
            if value is target.func
        ]

    def unwrapped(self) -> list[str]:
        """Bindings that still hold an original listed function."""
        left = []
        for target in self._targets:
            if isinstance(target.holder, type):
                if vars(target.holder)[target.attr] is target.raw:
                    left.append(f"{target.holder.__qualname__}.{target.attr}")
                continue
            for module, key in self._bindings(target):
                left.append(f"{module.__name__}.{key}")
        return left

    @contextmanager
    def recording(self, spans: Spans):
        """Wrap every binding for the duration of the block; spans go to ``spans``."""
        stack = [-1]
        saved = []
        try:
            for index, target in enumerate(self._targets):
                wrapper = _wrap(target.func, index, spans, stack)
                if isinstance(target.raw, (classmethod, staticmethod)):
                    wrapper = type(target.raw)(wrapper)
                for holder, key in self._bindings(target):
                    saved.append((holder, key, vars(holder)[key]))
                    setattr(holder, key, wrapper)
            left = self.unwrapped()
            if left:
                raise RuntimeError(f"unwrapped bindings remain: {', '.join(left)}")
            yield
        finally:
            for holder, key, value in reversed(saved):
                setattr(holder, key, value)


def save_spans(path, workload: str, labels, passes: list[Spans]) -> None:
    """Write the spans of every traced pass as flat arrays to an ``.npz`` file.

    ``parent`` indexes spans of the same pass (``pass_index``); ``labels``
    maps ``name`` to ``<module>.<function>``.
    """
    np.savez(
        path,
        labels=np.array(labels),
        workload=np.array(workload),
        name=np.concatenate([np.asarray(s.name, dtype=np.int32) for s in passes]),
        parent=np.concatenate([np.asarray(s.parent, dtype=np.int32) for s in passes]),
        start=np.concatenate([np.asarray(s.start) for s in passes]),
        end=np.concatenate([np.asarray(s.end) for s in passes]),
        pass_index=np.concatenate(
            [np.full(len(s), i, dtype=np.int32) for i, s in enumerate(passes)]
        ),
    )
