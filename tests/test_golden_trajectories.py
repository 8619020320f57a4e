"""Golden trajectories of the exact-oracle dynamics, round by round.

``test_golden.py`` pins final profiles; these pin every state a run
passes through.  The flows hash the bytes of ``tr.p``, ``tr.v`` and
``tr.residual``.  The banded dynamics hash every ``(p, v, resid)`` their
``record`` hook sees, read after the run (so a loop that later writes
into an array it handed to the hook changes the hash), and the final
profile, which the rounds after the hook (the broadcast march of
plane-comm) still move.  The literals were recorded from the package
and must be reproduced bit for bit.
"""

import hashlib

import pytest

from largegames import binary, continuous, families
from largegames.oracles import OracleSession

SEEDS = range(3)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _flow(name, **kwargs):
    def run(seed):
        game = families.gen_linear_influence(20, 2, 1.0, seed)
        tr = getattr(continuous, name)(game, step_h=1e-3, **kwargs)
        return _digest((tr.p, tr.v, tr.residual))
    return run


def _banded(name, c=1.0, make_game=families.gen_linear_influence):
    """n = 100, alpha = 0.05; curve dynamics take the game's c."""
    def run(seed):
        game = make_game(100, 2, c, seed)
        seen = []
        profile, _ = getattr(binary, name)(
            OracleSession(game, seed=seed), binary.DynamicsParams(alpha=0.05),
            mode="exact", record=lambda p, v, resid: seen.extend((p, v, resid)))
        return len(seen) // 3, _digest(seen), _digest((profile.probs,))
    return run


CASES = {
    "plane-flow": _flow("simulate_plane_flow"),
    "curve-flow": _flow("simulate_curve_flow", c=2.0),
    "plane": _banded("plane_dynamics"),
    "plane-comm": _banded("communication_dynamics"),
    # every player of a lower-bound game is flagged, so the broadcast march runs
    "plane-comm-lower-bound": _banded(
        "communication_dynamics",
        make_game=lambda n, k, c, seed: families.gen_lower_bound(n, 4.0, seed)),
    # c = 4 keeps every player at 1/2; c = 2 climbs and tracks; c = 0.05 saturates
    "curve": _banded("curve_dynamics", c=4.0),
    "curve-c2": _banded("curve_dynamics", c=2.0),
    "curve-c0.05": _banded("curve_dynamics", c=0.05),
}

GOLDEN = {'plane-flow': ['be6fb0fa85ba22d9', '11d4eeba5854464c', '0ba179e5d182ea40'],
 'curve-flow': ['f86eeeaa2a00d84b', 'e8ef117fdd8f1e55', 'a7498ba27a8fda19'],
 'plane': [(88, '41229c4cbd673637', '0b31e47b8182e526'),
           (88, 'cb6b86076aec1abd', '9f9fc015a32884f1'),
           (88, '355c52de0c0cccd8', '974c60c01c521023')],
 'plane-comm': [(88, '41229c4cbd673637', '0b31e47b8182e526'),
                (88, 'cb6b86076aec1abd', '9f9fc015a32884f1'),
                (88, '355c52de0c0cccd8', '974c60c01c521023')],
 'plane-comm-lower-bound': [(88, '1b57628f9cb269c7', '86e80d9e490ce396'),
                            (88, 'b1ac5ef4bf3ae5f4', '253088ddd2319c98'),
                            (88, 'f769a2fab756b04c', 'f26c3db54d3d1213')],
 'curve': [(160, 'c46a5506c69d3038', '6dcdc830018f292e'),
           (160, '5546c0f5b8b78005', '6dcdc830018f292e'),
           (160, '3d6d0a4cfcaff06e', '6dcdc830018f292e')],
 'curve-c2': [(168, '0abfbfb409ca4021', 'd8414a9b1ea404cc'),
              (168, 'ba63f0d7fdb958fc', '6fe8cef491e9956d'),
              (168, '96a7ea4f0bd9f6a2', 'f259bb88332e0c42')],
 'curve-c0.05': [(8, 'bdf379f579447585', '165783bc371ee846'),
                 (8, '8818e2242f144676', 'f1b3e6ceaf4cc807'),
                 (8, '8184cb80ac4f2625', '97c53bee234cd731')]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_is_golden(name):
    assert [CASES[name](seed) for seed in SEEDS] == GOLDEN[name]


if __name__ == "__main__":  # print the literals of the current package
    print({name: [run(seed) for seed in SEEDS] for name, run in CASES.items()})
