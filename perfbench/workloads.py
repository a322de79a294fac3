"""The benchmark's workloads, as rounds of timed operations.

An operation is one call into the package that the benchmark times: one
``harness.run_monte_carlo`` call on a single (scenario, algorithm, SNR)
cell.  Calls go through module attributes at call time, so the traced
run's rebinding sees them.  Inputs come from the workload
seed only.  The first ``block_rounds`` rounds always run; they form the
fixed block that the hit and failure rates and the metrics CSV digest come
from, so those are fixed for a given seed however fast the code is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

from checks import check_rows
from elaa_doa import harness
from elaa_doa.scenarios import builtin_scenarios


@dataclass
class Op:
    """One timed call and the scoring of its output (outside the clock).

    ``score`` checks the output and returns (trials, failed, hits, rows),
    where ``rows`` are the metrics rows for the CSV digest.
    """

    label: str
    call: Callable[[], object]
    score: Callable[[object], tuple[int, int, int, list]]


def mix_seed(*parts) -> int:
    """64-bit seed for one place in a workload's plan."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def _cell_op(spec) -> Op:
    return Op(
        label=f"{spec.name}/{spec.algorithms[0]}/{spec.snr_grid_db[0]!r}",
        call=lambda: harness.run_monte_carlo(spec),
        score=lambda rows: (*check_rows(rows, spec), rows),
    )


class FarfieldSweep:
    """Both fig3 scenarios x four DOA algorithms x 0-40 dB, equal trials per cell.

    The ``fig3_rows`` fixture in its own proportions.  A round is every
    cell once; each cell call runs ``trials_per_cell`` trials, so a
    batched harness has a cell's worth of trials to batch.
    """

    name = "farfield_sweep"

    def __init__(self, seed: int, trials_per_cell: int = 4, block_rounds: int = 8):
        self.seed, self.trials_per_cell, self.block_rounds = seed, trials_per_cell, block_rounds
        specs = builtin_scenarios()
        self.cells = [
            (specs[name], snr_index, snr, algo)
            for name in ("fig3_small_sep", "fig3_large_sep")
            for snr_index, snr in enumerate(specs[name].snr_grid_db)
            for algo in specs[name].algorithms
        ]

    def round_ops(self, r: int) -> list[Op]:
        return [
            _cell_op(
                replace(
                    spec,
                    snr_grid_db=(snr,),
                    algorithms=(algo,),
                    n_trials=self.trials_per_cell,
                    base_seed=mix_seed(self.seed, r, spec.name, snr_index),
                )
            )
            for spec, snr_index, snr, algo in self.cells
        ]

    def warm_ops(self) -> list[Op]:
        """First call of each estimator, for the set-up probe."""
        first_cell_of_each_algorithm = self.cells[: len(self.cells[0][0].algorithms)]
        return [
            _cell_op(replace(spec, snr_grid_db=(snr,), algorithms=(algo,), n_trials=1))
            for spec, _, snr, algo in first_cell_of_each_algorithm
        ]


class NearfieldLocalize:
    """fig4_near_a and fig4_near_b at 30 dB with nf_localize, one trial per call.

    A round is three ``fig4_near_a`` trials and one ``fig4_near_b`` trial.
    ``fig4_near_a`` takes about 40 or 55 ms a trial and ``fig4_near_b``
    about 105 ms, with each also landing in the other's mode now and then;
    at one to one the median trial sits in the gap between the modes and
    jumps with the seed, at three to one it sits inside a mode.  The 3:1
    mix also keeps the hit rate steady, since ``fig4_near_b`` hits are rare.
    """

    name = "nearfield_localize"
    MIX = ("fig4_near_a", "fig4_near_a", "fig4_near_a", "fig4_near_b")

    def __init__(self, seed: int, block_rounds: int = 50):
        self.seed, self.block_rounds = seed, block_rounds
        self.specs = builtin_scenarios()

    def round_ops(self, r: int) -> list[Op]:
        return [
            _cell_op(
                replace(self.specs[name], n_trials=1, base_seed=mix_seed(self.seed, r, i))
            )
            for i, name in enumerate(self.MIX)
        ]

    def warm_ops(self) -> list[Op]:
        return [_cell_op(replace(self.specs["fig4_near_a"], n_trials=1))]


WORKLOADS = {w.name: w for w in (FarfieldSweep, NearfieldLocalize)}
