"""Ablation: Reno against NewReno under Figure 1's policer.

DESIGN.md's calibration note (§4a) claims the paper's Figure 1
oscillation is a classic-Reno artifact: Reno repairs one loss per
round trip, so a burst of policer drops often ends in a retransmission
timeout and slow start, while NewReno's partial-ACK recovery rides the
same drops with a nearly flat line just under the reservation. Each
arm is :func:`fig1_tcp_reservation.run` with the sender's recovery
switched, so the Reno arm is Figure 1 itself.
"""

from __future__ import annotations

from typing import List

from . import fig1_tcp_reservation as fig1
from .common import ExperimentResult

__all__ = ["run", "check", "RECOVERIES"]

RECOVERIES = ("reno", "newreno")


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 1's steady-state statistics, one row per recovery style."""
    result = ExperimentResult(
        experiment="recovery_ablation",
        description="Figure 1 under Reno vs NewReno loss recovery: "
        "steady-state bandwidth",
        headers=["recovery", "mean_kbps", "std_kbps", "retransmissions"],
    )
    for recovery in RECOVERIES:
        extra = fig1.run(quick=quick, seed=seed, recovery=recovery).extra
        result.rows.append(
            [recovery] + [extra[column] for column in result.headers[1:]]
        )
    return result


def check(result: ExperimentResult) -> List[str]:
    """The calibration note's claims, one message per claim the result
    breaks: NewReno holds a nearly flat line just under the 40 Mb/s
    reservation, while Reno oscillates hard at no higher a mean."""
    rows = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
    reno, newreno = (
        (rows[name]["mean_kbps"] / 1e3, rows[name]["std_kbps"] / 1e3)
        for name in RECOVERIES
    )
    claims = [
        (35.0 < newreno[0] < 41.0,
         f"35 < NewReno mean {newreno[0]:.2f} Mb/s < 41"),
        (newreno[1] < 3.0, f"NewReno std {newreno[1]:.2f} Mb/s < 3"),
        (reno[1] > 2.0 * newreno[1],
         f"Reno std {reno[1]:.2f} > 2 x NewReno std {newreno[1]:.2f} Mb/s"),
        (reno[0] < newreno[0] + 1.0,
         f"Reno mean {reno[0]:.2f} < NewReno mean {newreno[0]:.2f} "
         f"+ 1 Mb/s"),
    ]
    return [
        f"recovery_ablation: {claim} fails"
        for holds, claim in claims if not holds
    ]
