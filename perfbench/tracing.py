"""Spans around the public entry points of each largegames layer.

The tracer patches functions and methods from outside the package and
puts every original back when it is closed, so untraced runs execute the
package untouched.  Names imported into another module by name
(``build_report`` in ``binary``, ``blocks`` and ``runner``) are patched
where they are used.  ``continuous`` calls the ``games`` module function
``mixed_payoff_table``, which dispatches to the game's method, so wrapping
the method of ``LinearInfluenceGame`` catches every table call.  No private
function is wrapped.

Spans stay in memory as ``Span`` records with a run id and the index of
their parent span; they are written out once, at the end of a benchmark.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    layer: str
    run: int
    parent: int | None
    start: float
    end: float = 0.0
    rows: int = 0          # pure-query rows evaluated (payoffs_batch only)
    flops: float = 0.0     # computed from shapes, not counted by hardware
    nbytes: float = 0.0    # computed from shapes, not counted by hardware


def _game_array_bytes(game) -> int:
    """Bytes of the numpy arrays a game object holds, directly or in lists."""
    total = 0
    for value in vars(game).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        total += sum(item.nbytes for item in items if isinstance(item, np.ndarray))
    return total


def _batch_work(args, result, span):
    game, actions = args[0], args[1]
    n, k = game.n, game.k
    span.rows = int(actions.shape[0])
    # dense model: every row sums n opponents' k-action weights for n players
    span.flops = 2.0 * span.rows * n * n * k


def _table_work(args, result, span):
    game = args[0]
    n, k = game.n, game.k
    span.flops = 2.0 * n * n * k * k
    span.nbytes = 8.0 * n * n * k * k


def _game_bytes(args, result, span):
    span.nbytes = float(_game_array_bytes(result))


class Tracer:
    """Records spans while installed; single caller, single thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, self.run,
                        self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                work(args, result, span)
            return result
        return traced

    def _patch(self, owner, attr, layer, work=None):
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original, work))

    def install(self):
        """Patch every traced entry point; ``close`` undoes it."""
        from largegames import binary, blocks, continuous, families, oracles, runner

        game_cls = families.LinearInfluenceGame
        self._patch(game_cls, "payoffs_batch", "games.payoffs_batch", _batch_work)
        self._patch(game_cls, "mixed_payoff_table", "games.mixed_payoff_table", _table_work)
        for name in ("sample_mixed_binary", "sample_mixed_kaction"):
            self._patch(oracles.OracleSession, name, "oracles.sample_mixed")
        self._patch(oracles.OracleSession, "exact_mixed", "oracles.exact_mixed")
        for name in ("one_step", "two_step", "plane_dynamics",
                     "communication_dynamics", "curve_dynamics"):
            self._patch(binary, name, "binary")
        self._patch(blocks, "block_update", "blocks")
        for name in ("simulate_plane_flow", "simulate_curve_flow"):
            self._patch(continuous, name, "continuous")
        self._patch(families, "make_game", "families.make_game", _game_bytes)
        for module in (binary, blocks, runner):
            self._patch(module, "build_report", "reports.build_report")
        self._patch(runner, "run_one", "runner")
        return self

    def close(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()

    def totals(self) -> dict:
        """Per-layer sums over all recorded spans.

        For each layer: ``calls``, ``s`` (span time), ``self_s`` (span time
        minus the time of its direct child spans), ``rows``, ``flops`` and
        ``bytes``.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_s):
            acc = out.setdefault(span.layer, dict.fromkeys(
                ("calls", "s", "self_s", "rows", "flops", "bytes"), 0.0))
            elapsed = span.end - span.start
            acc["calls"] += 1
            acc["s"] += elapsed
            acc["self_s"] += elapsed - children
            acc["rows"] += span.rows
            acc["flops"] += span.flops
            acc["bytes"] += span.nbytes
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "run": span.run, "parent": span.parent,
                    "layer": span.layer, "start": span.start, "end": span.end,
                    "rows": span.rows, "flops": span.flops, "bytes": span.nbytes,
                }) + "\n")
