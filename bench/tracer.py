"""Outside-in tracer: times the public functions of each `haarfactor` layer.

The tracer wraps functions from outside the package, so nothing under
``src/`` knows it exists.  ``from .grids import lp_norm`` copies a binding
into the importing module, so a wrapped function is rebound in every
``haarfactor.*`` namespace that holds it; properties and methods are
wrapped on their class.  Everything is restored on exit.

Only coarse public functions are wrapped.  ``WeightSequence.weight``,
``BasisRegistry.haar_profile`` and ``ProductGrid.shape`` run more than 10^6
times per workload pass, and timing them would swamp the run.

Spans live in memory with a parent link.  ``Tracer.self_times()`` turns
them into per-layer self times (a span's duration minus the time its
wrapped children cover), ``Tracer.calls()`` into call counts; counters
gather in ``Tracer.counts``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "haarfactor"


def _cells(_args, _kwargs, self_, _result):
    # only a factored function is materialized; a dense one is returned as is
    return self_.grid.ncells if self_.is_factored else 0


def _sampled(_args, _kwargs, _self, result):
    return 1 if result.mode == "sampled" else 0


def _patterns(args, _kwargs, _self, _result):
    return 2 ** args[0].size


def _hits(_args, _kwargs, _self, result):
    return 0 if type(result).__name__ == "SignSearchFailure" else 1


def _entries(args, kwargs, _self, _result):
    return args[0] if args else kwargs["count"]


def _text_len(_args, _kwargs, _self, result):
    return len(result)


def _arg_len(args, kwargs, _self, _result):
    return len(args[0] if args else kwargs["text"])


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is a function name or ``Class.member``."""

    layer: str
    attr: str
    stem: str
    counters: tuple = ()  # (counter name, fn(args, kwargs, self, result) -> int)


TARGETS = (
    Target("grids", "GridFunction.dense", "dense", (("cells", _cells),)),
    Target("grids", "lp_norm", "lp_norm"),
    Target("haarsys", "realize", "realize"),
    Target("haarsys", "check_distributional_copy", "distribution_check",
           (("distribution_sampled", _sampled),)),
    Target("operators", "neumann_invert", "neumann_invert"),
    Target("randsigns", "sign_search", "sign_search",
           (("patterns", _patterns), ("hits", _hits))),
    Target("randsigns", "exact_moments", "exact_moments"),
    Target("reduction", "reduce_to_diagonal", "reduce_to_diagonal"),
    Target("reduction", "reduce_to_scalar_finite", "reduce_to_scalar"),
    Target("reduction", "interaction_matrix", "interaction_matrix"),
    Target("reduction", "compose_certificates", "compose"),
    Target("reduction", "verify_certificate", "verify_certificate"),
    Target("factorize", "factor_large_diagonal", "factor_large_diagonal"),
    Target("factorize", "primary_dichotomy", "primary_dichotomy"),
    Target("factorize", "FactorizationWitness.sample_max_ratio", "sample_max_ratio"),
    Target("weightedlp", "play_game", "play_game"),
    Target("weightedlp", "GameTranscript.verify", "transcript_verify"),
    Target("weightedlp", "xpw_norm", "xpw_norm"),
    Target("weightedlp", "WeightSequence.weights", "weights",
           (("weight_entries", _entries),)),
    Target("weightedlp", "impartial_equivalence", "impartial_equivalence"),
    Target("weightedlp", "block_span_project", "block_span_project"),
    Target("serialize", "dumps", "dumps", (("bytes_out", _text_len),)),
    Target("serialize", "loads", "loads", (("bytes_in", _arg_len),)),
    Target("cli", "run", "run"),
)


@dataclass
class Span:
    key: str  # "<layer>.<stem>"
    parent: int | None  # index of the enclosing span, None at top level
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Records spans and counters while installed (``with Tracer() as t``)."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording -------------------------------------------------------------

    def _wrap(self, key: str, fn, counters, bound: bool):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(key, stack[-1] if stack else None, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counters:
                self_, rest = (args[0], args[1:]) if bound else (None, args)
                for name, count in counters:
                    counts[name] = counts.get(name, 0) + count(rest, kwargs, self_, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, target: Target) -> None:
        module = importlib.import_module(f"{PACKAGE}.{target.layer}")
        key = f"{target.layer}.{target.stem}"
        counters = tuple((f"{target.layer}.{n}", fn) for n, fn in target.counters)
        if "." in target.attr:
            cls_name, member = target.attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[member]
            if isinstance(original, property):
                wrapped = property(self._wrap(key, original.fget, counters, True))
            else:
                wrapped = self._wrap(key, original, counters, True)
            setattr(cls, member, wrapped)
            self._undo.append((cls, member, original))
            return
        original = getattr(module, target.attr)
        wrapped = self._wrap(key, original, counters, False)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span key; keys of every target are present."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = {f"{t.layer}.{t.stem}": 0.0 for t in TARGETS}
        for span, covered in zip(self.spans, child_time):
            totals[span.key] += (span.end - span.start) - covered
        return totals

    def calls(self) -> dict[str, int]:
        totals = {f"{t.layer}.{t.stem}": 0 for t in TARGETS}
        for span in self.spans:
            totals[span.key] += 1
        return totals
