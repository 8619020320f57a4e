"""Core game representations and exact ground-truth verifiers.

A game here is an n-player, k-action payoff structure with utilities in
[0, 1] and a declared influence budget c: no single opponent's action
switch may move a player's payoff by more than gamma = c/n.  Every game
implements ``payoffs_batch`` for batches of pure profiles and
``mixed_payoff_table``, its own exact table of expected payoffs under a
mixed profile.  This module provides both for explicit and independent
games, and the verifiers (``regret_report`` for regret, discrepancy and
well-supported slack, ``check_largeness``) that grade every algorithm.

All types are immutable after construction and every operation is pure,
so values can be shared freely across threads.  There are two
exceptions, both in ``LinearInfluenceGame``'s batch evaluation:

- its one operand cache, which the first batch builds: the GEMM operands
  and constant tiles at most one chunk (``BATCH_ROWS`` rows) high (and for
  k > 2 the scaled base payoffs).  The arrays are read-only, computed only
  from the immutable fields and published by a single attribute assignment,
  so two threads that race there build equal arrays twice and each computes
  with its own;
- the k > 2 kernel's scratch buffers (mask, product, index), at most one
  chunk high and held per thread in a ``threading.local``, so each thread
  writes only its own.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

SUPPORT_EPS = 1e-12          # probability mass below this does not count as support
PROB_TOL = 1e-12             # tolerance for "rows sum to one"
LARGENESS_TOL = 1e-12
BATCH_ROWS = 4096            # pure profiles per verifier batch and per sampling chunk


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_budget(c) -> float:
    """The influence budget c as a float, which must be finite and nonnegative."""
    c = float(c)
    if not 0.0 <= c < math.inf:
        raise ValueError(f"influence budget c must be finite and nonnegative, got {c}")
    return c


def binary_probs(p_one: np.ndarray) -> np.ndarray:
    """The (n, 2) probabilities [1 - p, p] of a float vector of P[action 1]."""
    probs = np.empty((p_one.shape[0], 2))
    np.subtract(1.0, p_one, out=probs[:, 0])
    probs[:, 1] = p_one
    return probs


@dataclass(frozen=True)
class MixedProfile:
    """Per-player probability vectors over the k actions.

    ``probs`` has shape (n, k); row i is player i's mixed strategy.  For
    binary games the scalar convenience accessors work with the single
    probability of action 1.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2:
            raise ValueError("mixed profile must be an (n, k) matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        if np.any(arr < -PROB_TOL):
            raise ValueError("probabilities must be nonnegative")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PROB_TOL):
            raise ValueError("each player's probabilities must sum to 1")
        object.__setattr__(self, "probs", _readonly(np.clip(arr, 0.0, None)))

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def uniform(cls, n: int, k: int = 2) -> "MixedProfile":
        return cls(np.full((n, k), 1.0 / k))

    @classmethod
    def from_binary(cls, p_one) -> "MixedProfile":
        """Build a binary profile from the vector of P[action = 1]."""
        p = np.asarray(p_one, dtype=float)
        if p.ndim != 1:
            raise ValueError("binary profile vector must be 1-d")
        if np.any(p < -PROB_TOL) or np.any(p > 1.0 + PROB_TOL):
            raise ValueError("binary probabilities must lie in [0, 1]")
        return cls(binary_probs(np.clip(p, 0.0, 1.0)))

    @classmethod
    def pure(cls, actions, k: int) -> "MixedProfile":
        a = as_pure_profile(actions, len(actions), k)
        mat = np.zeros((a.shape[0], k))
        mat[np.arange(a.shape[0]), a] = 1.0
        return cls(mat)

    def binary(self) -> np.ndarray:
        if self.k != 2:
            raise ValueError("binary view requires k = 2")
        return self.probs[:, 1].copy()

    def support(self) -> np.ndarray:
        return self.probs > SUPPORT_EPS


def as_pure_profile(actions, n: int, k: int) -> np.ndarray:
    """Check one pure profile where it enters; returns its int64 actions.

    Integer-valued arrays of any dtype pass (the binary draws are 0.0/1.0);
    non-finite or fractional actions are rejected, not truncated.
    """
    arr = np.asarray(actions)
    if arr.shape != (n,):
        raise ValueError(f"profile must have length {n}, got shape {arr.shape}")
    if arr.dtype.kind not in "biu" and not (
            arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.round(arr)))):
        raise ValueError("actions must be integers")
    if arr.size and (arr.min() < 0 or arr.max() >= k):
        raise ValueError(f"actions must lie in [0, {k})")
    return arr.astype(np.int64, copy=False)


class Game(ABC):
    """An n-player, k-action game evaluable on batches of pure profiles.

    Subclasses fill ``n``, ``k``, ``c`` and implement both abstract methods:
    ``payoffs_batch``, through which ``payoffs`` answers one profile, and
    ``mixed_payoff_table``, the game's own closed form of the exact table.
    Profiles are checked where they enter, by ``MixedProfile`` and the
    module-level verifiers.  Pure queries are answered by
    ``sample_payoffs_batch``, which games with stochastic utilities override
    to draw from their payoff distributions.
    """

    n: int
    k: int
    c: float

    @property
    def gamma(self) -> float:
        return self.c / self.n

    def payoffs(self, actions) -> np.ndarray:
        """Payoff vector (length n) for one pure profile: row 0 of a one-row batch.

        Only one-row answers are pinned.  A row inside a batch gets the bits of
        its ``BATCH_ROWS``-row chunk, and OpenBLAS picks its summation order by
        shape: at n = 60 about 99% of the rows of a 4096-row linear-influence
        chunk differ in their last bits from the same row alone.
        """
        a = as_pure_profile(actions, self.n, self.k)
        return self.payoffs_batch(a[None, :])[0]

    @abstractmethod
    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Payoffs for a (S, n) batch of pure profiles; returns (S, n).

        Rows are trusted: integer-valued actions in [0, k), of any integer or
        float dtype (the binary sampling draws 0.0/1.0).  With ``out`` (a float
        (S, n) array) the payoffs are written there and ``out`` is returned;
        otherwise the result is a new array.
        """

    def sample_payoffs_batch(self, actions: np.ndarray, rng: np.random.Generator,
                             out: np.ndarray | None = None) -> np.ndarray:
        """Answers to a (S, n) batch of pure queries: here the payoffs themselves."""
        return self.payoffs_batch(actions, out=out)

    @abstractmethod
    def mixed_payoff_table(self, probs: np.ndarray) -> np.ndarray:
        """Exact (n, k) table, entry (i, j) = E[u_i(j, a_-i)], under the trusted
        (n, k) probability array ``probs``."""


class TensorGame(Game):
    """Explicit payoff tensor, shape (n,) + (k,) * n."""

    def __init__(self, tensor: np.ndarray, c: float):
        tensor = np.asarray(tensor, dtype=float)
        n = tensor.shape[0]
        if tensor.ndim != n + 1 or any(s != tensor.shape[1] for s in tensor.shape[1:]):
            raise ValueError("tensor must have shape (n,) + (k,) * n")
        if not np.all(np.isfinite(tensor)):
            raise ValueError("payoffs must be finite")
        if tensor.size and (tensor.min() < -PROB_TOL or tensor.max() > 1 + PROB_TOL):
            raise ValueError("payoffs must lie in [0, 1]")
        self.tensor = _readonly(tensor)
        self.n = n
        self.k = tensor.shape[1]
        self.c = _check_budget(c)

    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        a = np.asarray(actions, dtype=np.intp)
        payoffs = self.tensor[(slice(None), *a.T)].T
        if out is None:
            return payoffs.copy()
        out[...] = payoffs
        return out

    def mixed_payoff_table(self, probs: np.ndarray) -> np.ndarray:
        table = np.empty((self.n, self.k))
        for i in range(self.n):
            t = self.tensor[i]
            # contract opponents from the highest axis down so lower axes keep position
            for axis in range(self.n - 1, -1, -1):
                if axis != i:
                    t = np.tensordot(t, probs[axis], axes=(axis, 0))
            table[i] = t
        return table

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "k": self.k, "c": self.c,
             "payoffs": [float(x) for x in self.tensor.ravel(order="C")]},
            sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TensorGame":
        obj = json.loads(text)
        n, k = int(obj["n"]), int(obj["k"])
        flat = np.asarray(obj["payoffs"], dtype=float)
        if flat.size != n * k ** n:
            raise ValueError("payoff table has wrong length")
        return cls(flat.reshape((n,) + (k,) * n), float(obj["c"]))


class IndependentGame(Game):
    """Each player's payoff depends only on her own action: u_i(a) = values[i, a_i]."""

    def __init__(self, values: np.ndarray, c: float = 0.0):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be an (n, k) matrix")
        if not np.all(np.isfinite(values)):
            raise ValueError("payoffs must be finite")
        if values.min() < 0 or values.max() > 1:
            raise ValueError("payoffs must lie in [0, 1]")
        self.values = _readonly(values)
        self.n, self.k = values.shape
        self.c = _check_budget(c)

    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        cell = np.asarray(actions, dtype=np.intp) + np.arange(0, self.n * self.k, self.k)
        return np.take(self.values, cell, out=out)

    def mixed_payoff_table(self, probs: np.ndarray) -> np.ndarray:
        return self.values.copy()


# ---------------------------------------------------------------------------
# verifiers

def mixed_payoff_table(game: Game, profile: MixedProfile) -> np.ndarray:
    """Matrix of expected payoffs, entry (i, j) = E[u_i(j, a_-i)]."""
    if profile.n != game.n or profile.k != game.k:
        raise ValueError("profile shape does not match game")
    return game.mixed_payoff_table(profile.probs)


@dataclass(frozen=True)
class RegretReport:
    """Per-player regret diagnostics for one mixed profile."""

    regrets: np.ndarray          # (n,)
    gaps: np.ndarray             # (n, k) best-response payoff minus action payoff
    support: np.ndarray          # (n, k) bool, probability above the support threshold
    discrepancies: np.ndarray | None  # (n,) for binary games, else None

    @property
    def max_regret(self) -> float:
        return float(self.regrets.max())

    @property
    def wsne_slack(self) -> float:
        """Largest optimality gap over supported actions."""
        return float(self.gaps[self.support].max())

    def to_dict(self) -> dict:
        out = {
            "regrets": [float(x) for x in self.regrets],
            "max_regret": self.max_regret,
            "wsne_slack": self.wsne_slack,
        }
        if self.discrepancies is not None:
            out["discrepancies"] = [float(x) for x in self.discrepancies]
        return out


def regret_report(game: Game, profile: MixedProfile) -> RegretReport:
    table = mixed_payoff_table(game, profile)
    best = table.max(axis=1)
    gaps = best[:, None] - table
    regs = np.maximum(best - np.sum(table * profile.probs, axis=1), 0.0)
    disc = np.abs(table[:, 0] - table[:, 1]) if game.k == 2 else None
    return RegretReport(regrets=regs, gaps=gaps, support=profile.support(),
                        discrepancies=disc)


@dataclass(frozen=True)
class LargenessReport:
    ok: bool
    gamma: float
    worst: float                 # largest payoff change from a unilateral opponent switch
    witness: tuple | None        # (profile, victim, deviator, new action)
    tested: int


def check_largeness(game: Game, gamma: float, mode: str = "exhaustive",
                    trials: int = 10_000, seed: int = 0) -> LargenessReport:
    """Verify that unilateral opponent deviations move payoffs by at most gamma.

    ``exhaustive`` scans every profile and deviation (allowed only while
    k^n <= 2^20); ``sampled`` draws ``trials`` random (profile, deviator,
    action) triples from a seeded generator.  Both evaluate their triples
    ``BATCH_ROWS`` at a time; the witness is the first triple and victim,
    in scan order, with the largest change.
    """
    if mode == "exhaustive":
        if game.k ** game.n > 2 ** 20:
            raise ValueError("profile space too large for exhaustive largeness check (k^n > 2^20)")
        triples = _every_deviation(game.n, game.k)
    elif mode == "sampled":
        if trials < 1:
            raise ValueError("sampled largeness check needs trials >= 1")
        triples = _sampled_deviations(game.n, game.k, trials, seed)
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    worst = 0.0
    witness = None
    tested = 0
    for actions, deviator, alt in triples:
        rows = np.arange(actions.shape[0])
        moved = actions.copy()
        moved[rows, deviator] = alt
        diff = np.abs(game.payoffs_batch(moved) - game.payoffs_batch(actions))
        diff[rows, deviator] = 0.0
        s, i = np.unravel_index(np.argmax(diff), diff.shape)  # first maximum in scan order
        if diff[s, i] > worst:
            worst = float(diff[s, i])
            witness = (tuple(int(x) for x in actions[s]), int(i), int(deviator[s]), int(alt[s]))
        tested += rows.size
    return LargenessReport(ok=bool(worst <= gamma + LARGENESS_TOL), gamma=gamma,
                           worst=worst, witness=witness, tested=tested)


def _every_deviation(n: int, k: int):
    """Every (profile, deviator, other action) triple, in that order of keys."""
    total = k ** n * n * (k - 1)
    for lo in range(0, total, BATCH_ROWS):
        profile, deviator, step = np.unravel_index(
            np.arange(lo, min(lo + BATCH_ROWS, total)), (k ** n, n, k - 1))
        actions = np.column_stack(np.unravel_index(profile, (k,) * n))
        own = actions[np.arange(profile.size), deviator]
        yield actions, deviator, step + (step >= own)  # skip the deviator's own action


def _sampled_deviations(n: int, k: int, trials: int, seed: int):
    """``trials`` uniform (profile, deviator, other action) triples."""
    rng = np.random.default_rng(seed)
    for lo in range(0, trials, BATCH_ROWS):
        m = min(BATCH_ROWS, trials - lo)
        actions = rng.integers(0, k, size=(m, n))
        deviator = rng.integers(n, size=m)
        alt = (actions[np.arange(m), deviator] + 1 + rng.integers(k - 1, size=m)) % k
        yield actions, deviator, alt
