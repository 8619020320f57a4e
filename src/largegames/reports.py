"""Run records shared by all algorithms."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .games import Game, MixedProfile, regret_report


def array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


# report keys that differ from the RunReport field names
_RENAMED = {"regret_summary": "per_player_regret_summary",
            "profile_digest": "final_profile_digest"}


@dataclass
class RunReport:
    """One algorithm run: parameters, query spend and exact regret summary."""

    algorithm: str
    params: dict
    seed: int
    n: int
    c: float
    rounds: int
    pure_queries: int
    qm_calls: int
    max_regret: float
    regret_summary: dict
    profile_digest: str
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {_RENAMED.get(f.name, f.name): getattr(self, f.name)
               for f in fields(self) if f.name != "extra"}
        out.update(self.extra)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def summarize_regrets(regrets: np.ndarray) -> dict:
    return {
        "min": float(regrets.min()),
        "mean": float(regrets.mean()),
        "median": float(np.median(regrets)),
        "max": float(regrets.max()),
    }


def mode_params(mode: str, beta: float, delta: float) -> dict:
    """A run's oracle mode and, if sampled, the accuracy and confidence it sampled at."""
    return {"mode": mode} | ({} if mode == "exact" else
                             {"sample_beta": beta, "sample_delta": delta})


def build_report(algorithm: str, params: dict, session, profile: MixedProfile,
                 rounds: int, extra: dict | None = None) -> RunReport:
    """Assemble a report, grading the final profile on the game's exact table."""
    game: Game = session.game
    rep = regret_report(game, profile)
    return RunReport(
        algorithm=algorithm,
        params=dict(params),
        seed=session.seed,
        n=game.n,
        c=game.c,
        rounds=rounds,
        pure_queries=session.pure_queries,
        qm_calls=session.qm_calls,
        max_regret=rep.max_regret,
        regret_summary=summarize_regrets(rep.regrets),
        profile_digest=array_digest(profile.probs),
        extra=dict(extra or {}),
    )
