"""Per-layer self times for the traced run, taken from outside the program.

``Tracer.installed()`` replaces the public functions of each layer with timing
wrappers, at the names through which their callers look them up, and puts the
originals back on exit.  Nothing in dynmatch is edited, and an untraced run
pays nothing.  A layer's self time is the time spent in its wrapped calls
minus the time of the wrapped calls nested in them, so the self times of all
layers add up to the time of the outermost wrapped calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import dynmatch.paths as paths
import dynmatch.random_walk as random_walk
from dynmatch.graph import DynamicGraph
from dynmatch.levels import LevelMwm
from dynmatch.mcm import DynamicMcm
from dynmatch.random_walk import RandomWalkMwm

# (owner, attribute, layer).  extend_walk is patched where random_walk
# imported it; mwm_on_path and apply_path_matching are looked up in paths by
# improve_along_path.  The LevelMwm handlers' self time is the fan-out: what
# is left of them once level-graph mutation (graph) and the per-level
# handlers (mcm) are taken out.
PATCHES = (
    (DynamicGraph, "insert_edge", "graph"),
    (DynamicGraph, "delete_edge", "graph"),
    (RandomWalkMwm, "handle_insert", "random_walk"),
    (RandomWalkMwm, "handle_delete", "random_walk"),
    (RandomWalkMwm, "run_walk_campaign", "random_walk"),
    (random_walk, "extend_walk", "paths.walk"),
    (paths, "mwm_on_path", "paths.dp"),
    (paths, "apply_path_matching", "paths.rewrite"),
    (DynamicMcm, "handle_insert", "mcm"),
    (DynamicMcm, "handle_delete", "mcm"),
    (LevelMwm, "handle_insert", "levels"),
    (LevelMwm, "handle_delete", "levels"),
    (LevelMwm, "weight", "levels.merge"),
)
AUDITED = (RandomWalkMwm, LevelMwm)  # audit() -> matching.shallow / matching.deep


class Tracer:
    """Self time, call count and walk length per layer, summed over a run."""

    def __init__(self) -> None:
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.walk_edges = 0
        # One child-time accumulator per open wrapped call; the bottom one
        # sums the outermost calls.
        self._stack = [0.0]

    @property
    def covered(self) -> float:
        """Seconds spent inside outermost wrapped calls."""
        return self._stack[0]

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed as ``layer``; ``after`` sees each result."""
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_time[layer] += dt - child
                calls[layer] += 1
            if after is not None:
                after(out)
            return out

        return timed

    def _count_walk_edges(self, path) -> None:
        self.walk_edges += path.edge_count

    def _audit(self, fn):
        shallow = self.wrap("matching.shallow", fn)
        deep_audit = self.wrap("matching.deep", fn)

        def audit(algo, deep=False):
            return (deep_audit if deep else shallow)(algo, deep)

        return audit

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, layer in PATCHES:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, property):
                    new = property(self.wrap(layer, orig.fget))
                elif layer == "paths.walk":
                    new = self.wrap(layer, orig, self._count_walk_edges)
                else:
                    new = self.wrap(layer, orig)
                setattr(owner, attr, new)
            for owner in AUDITED:
                orig = vars(owner)["audit"]
                saved.append((owner, "audit", orig))
                owner.audit = self._audit(orig)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
