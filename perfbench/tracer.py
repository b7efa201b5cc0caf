"""External span tracer for the stagger layers.

The tracer lives entirely in the benchmark: it replaces each listed
function by a timing wrapper in every ``stagger.*`` module namespace and
class that binds it (so ``from .x import f`` copies are caught too), keeps
spans in memory, and puts the originals back on ``restore``.

A span is (function, start, end, parent span).  A function's self time is
the sum over its spans of the span's duration minus the time covered by
its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Dict, List, Tuple

# layer -> functions ("Class.method" for methods), as named in the metrics
LAYERS: Dict[str, Tuple[str, ...]] = {
    "grmod": ("canonical_decompose", "free_kernel", "kernel_image_cokernel",
              "hom_dim", "ext1_dim"),
    "sstruct": ("member", "sigma", "step", "SigmaWitness.verify"),
    "derived": ("li_star", "ri_flat", "dualize", "derived_hom", "free_embed",
                "cone", "normal_form", "ChainMap.validate"),
    "stag": ("aisle_member", "validate_perversity", "geometry_report",
             "stag_truncate", "TriangleDecomp.audit", "heart_kernel_cokernel",
             "jh_factors", "JHReport.audit"),
    "oracle": ("oracle_decompose", "oracle_member", "oracle_max_sub",
               "oracle_aisle", "oracle_hom_ext"),
    "formats": ("parse_module", "parse_formal"),
    "cli": ("main",),
}

NAMES: List[str] = ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items()
                    for fn in fns]

# functions whose first argument is recorded, to count repeated calls
KEYED = ("stag.geometry_report",)


def _stagger_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stagger"
                                  or name.startswith("stagger."))]


def _resolve(name: str):
    """The original function behind a listed name, from its home module."""
    mod, _, rest = name.partition(".")
    owner = sys.modules["stagger." + mod]
    cls, _, attr = rest.rpartition(".")
    if cls:
        owner = getattr(owner, cls)
    return vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[int, float, float, int]] = []
        self.keys: Dict[int, list] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = self.keys.setdefault(idx, []) if NAMES[idx] in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.append(args[0] if args else next(iter(kwargs.values())))
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, stack[-1] if stack else -1)

        traced.perfbench_traced = True
        return traced

    def install(self) -> None:
        originals = {}
        for idx, name in enumerate(NAMES):
            fn = _resolve(name)
            originals[id(fn)] = self._wrap(idx, fn)
        for mod in _stagger_modules():
            owners = [mod] + [c for c in vars(mod).values()
                              if isinstance(c, type)
                              and c.__module__ == mod.__name__]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    wrapper = originals.get(id(val))
                    if wrapper is not None:
                        self._patched.append((owner, attr, val))
                        setattr(owner, attr, wrapper)

    def restore(self) -> List[str]:
        """Put the originals back; returns any binding still not original."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        problems = ["%s.%s" % (owner.__name__, attr)
                    for owner, attr, fn in self._patched
                    if vars(owner).get(attr) is not fn]
        self._patched = []
        for mod in _stagger_modules():
            for owner in [mod] + [c for c in vars(mod).values()
                                  if isinstance(c, type)]:
                problems += ["%s.%s" % (owner.__name__, attr)
                             for attr, val in vars(owner).items()
                             if getattr(val, "perfbench_traced", False)]
        return problems

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per function: calls and self seconds (every listed name appears)."""
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        child_s = [0.0] * len(self.spans)
        for idx, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for sid, (idx, t0, t1, _parent) in enumerate(self.spans):
            calls[idx] += 1
            self_s[idx] += (t1 - t0) - child_s[sid]
        return {name: {"calls": calls[i], "self_s": self_s[i]}
                for i, name in enumerate(NAMES)}

    def repeat_share(self, name: str) -> float:
        """Share of calls whose first argument was already seen (0 if none)."""
        keys = self.keys.get(NAMES.index(name), [])
        return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": NAMES,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
