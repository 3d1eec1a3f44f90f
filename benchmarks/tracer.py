"""Span tracing of halfcake's layers from outside the package.

``Tracer.install`` wraps the public functions of each layer module (plus a
few named methods) and puts each wrapper at every module attribute that
holds the original, so a call resolved through, say,
``replication_bounds.generic_rank_pattern`` or ``channel_model.rank_mod_p``
is traced as well as one through ``exact_linalg``.  ``Tracer.restore``
puts every original back.

Spans are kept in memory as tuples and turned into per-layer numbers only
after the run: self time is a span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import LAYER_MODULES

#: cli is traced at its entry point only, so cli.main's self time is the
#: command glue: argument parsing, JSON load and JSON emit
ONLY = {"cli": ("main",)}

#: methods traced besides module functions: (module, class, method, span name)
METHODS = (
    ("exact_linalg", "BlockPattern", "structural_cap", "exact_linalg.structural_cap"),
    ("channel_model", "NetworkSpec", "to_json", "channel_model.NetworkSpec.to_json"),
    ("channel_model", "NetworkSpec", "from_json", "channel_model.NetworkSpec.from_json"),
    ("channel_model", "ChannelRealization", "to_json", "channel_model.ChannelRealization.to_json"),
    ("channel_model", "ChannelRealization", "from_json",
     "channel_model.ChannelRealization.from_json"),
    ("channel_model", "ExtendedRealization", "to_json",
     "channel_model.ExtendedRealization.to_json"),
    ("channel_model", "ExtendedRealization", "from_json",
     "channel_model.ExtendedRealization.from_json"),
    ("alignment_schemes", "LinearScheme", "to_json", "alignment_schemes.LinearScheme.to_json"),
    ("alignment_schemes", "LinearScheme", "from_json",
     "alignment_schemes.LinearScheme.from_json"),
)

#: spans summed into one group metric
GROUPS = {
    "channel_model.json": ("channel_model.encode_matrix", "channel_model.decode_matrix",
                           "channel_model.NetworkSpec.to_json",
                           "channel_model.NetworkSpec.from_json",
                           "channel_model.ChannelRealization.to_json",
                           "channel_model.ChannelRealization.from_json",
                           "channel_model.ExtendedRealization.to_json",
                           "channel_model.ExtendedRealization.from_json"),
}

MERSENNE61 = (1 << 61) - 1


def _rank_note(args, kwargs, result):
    """rank_mod_p: (cells, p) of the matrix it ranked."""
    rows, cols = args[0].shape
    p = args[1] if len(args) > 1 else kwargs.get("p", MERSENNE61)
    return (rows * cols, p)


def _trials_note(sig):
    """generic_rank_pattern: the number of trials it was allowed."""
    def note(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["trials"]
    return note


def _passed_note(args, kwargs, result):
    return bool(result.passed)


def _note_for(name, func):
    """What a span of ``name`` records besides its timing, if anything."""
    if name == "exact_linalg.rank_mod_p":
        return _rank_note
    if name == "exact_linalg.generic_rank_pattern":
        return _trials_note(inspect.signature(func))
    if name == "alignment_schemes.verify_scheme":
        return _passed_note
    return None


class Tracer:
    """Wrappers on halfcake's layers and the spans they record."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start ns, end ns, op, note)
        self.op = None
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []  # (owner, attribute, original)
        self.names = set(GROUPS)  # every traced span name and group

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, func, note=None):
        self.names.add(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op,
                              note(args, kwargs, result) if note and result is not None
                              else None))

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a halfcake module holds it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "halfcake" or name.startswith("halfcake."))
                   and mod is not None}
        wrappers = {}
        for short in LAYER_MODULES:
            mod = modules[f"halfcake.{short}"]
            for attr, func in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != mod.__name__
                        or attr not in ONLY.get(short, (attr,))):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(func)] = self._wrap(name, func, _note_for(name, func))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for short, cls_name, meth, name in METHODS:
            cls = getattr(modules[f"halfcake.{short}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer numbers: ``<name>.calls`` and ``<name>.self_s`` for every
        traced name and group, plus counts and ratios taken at the boundaries."""
        names = {}
        child_ns = Counter()
        children = defaultdict(Counter)
        for sid, parent, name, start, end, _, _ in self.spans:
            names[sid] = name
            child_ns[parent] += end - start
            children[parent][name] += 1

        calls, self_ns = Counter(), Counter()
        cells, rank_ns = Counter(), Counter()  # rank_mod_p split by field size
        trials_run = trials_allowed = search_evals = search_coops = verify_failed = 0
        for sid, parent, name, start, end, _, note in self.spans:
            own = end - start - child_ns[sid]
            calls[name] += 1
            self_ns[name] += own
            if name == "exact_linalg.rank_mod_p" and note is not None:
                field = "p61" if note[1] == MERSENNE61 else "p31"
                cells[field] += note[0]
                rank_ns[field] += own
            elif name == "exact_linalg.generic_rank_pattern":
                trials_allowed += note or 0
                trials_run += children[sid]["exact_linalg.instantiate_pattern"]
            elif name == "alignment_schemes.verify_scheme" and note is False:
                verify_failed += 1
            if names.get(parent) == "replication_bounds.search_bounds":
                search_evals += name == "exact_linalg.generic_rank_pattern"
                search_coops += name == "replication_bounds.cooperate"
        for group, members in GROUPS.items():
            calls[group] = sum(calls[m] for m in members)
            self_ns[group] = sum(self_ns[m] for m in members)

        out = {}
        for name in sorted(self.names):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for field in ("p61", "p31"):
            out[f"exact_linalg.rank_mod_p.cells_{field}"] = cells[field]
            out[f"exact_linalg.rank_mod_p.{field}.self_s"] = rank_ns[field] / 1e9
        out.update({
            "exact_linalg.trial_ratio": trials_run / trials_allowed if trials_allowed else 0.0,
            "replication_bounds.search.rank_evals": search_evals,
            "replication_bounds.search.rank_eval_ratio":
                search_evals / search_coops if search_coops else 0.0,
            "alignment_schemes.verify_scheme.failed": verify_failed,
        })
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as gzipped JSON lines: id, parent, name, start_ns, end_ns, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op, _ in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end, op]) + "\n")
