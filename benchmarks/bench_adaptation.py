"""Closed-loop SLO adaptation under broker chaos.

Soaks the adaptation controller over several seeds with broker
crashes and restarts, and asserts the ladder really cycles on each
one. The single-run shape properties (adaptive compliance above
static, renegotiation through the outage, the flap bound, same-seed
equality) are covered by ``tests/test_fig_adaptation.py``.
"""

from repro.slo.chaos import run_soak

SOAK_SEEDS = (0, 1, 2)


def test_adaptation_chaos_soak(once):
    """The CI soak's invariants, over 3 seeds: conservation after each
    restart, empty slot tables at the end, flaps under the bound, and
    the full ladder (degrade to best-effort, restore to premium)."""

    def soak():
        return [run_soak(seed=seed, cycles=2) for seed in SOAK_SEEDS]

    runs = once(soak)
    for seed, stats in zip(SOAK_SEEDS, runs):
        # run_soak raises SoakFailure on any violated invariant; here
        # just confirm the ladder really cycled on every seed.
        assert stats["degradations"] >= 1, f"seed {seed}: ladder idle"
        assert stats["restores"] >= 1, f"seed {seed}: never climbed back"
        assert stats["final_rung"] == "premium", f"seed {seed} stuck"
        assert stats["flaps"] <= stats["flap_bound"], f"seed {seed} flapped"
