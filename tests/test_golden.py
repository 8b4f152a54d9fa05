"""The figure ledgers against a reduced golden file.

``data/fig_golden.csv`` holds every 100th row of the fig2 and fig3 presets
(phase damping and phase flip at theta = pi/6 on the default 4000-step grid),
all seven CSV columns at full precision, as computed by the per-grid-point
pipeline before the trajectory was built over the whole grid at once.  Any
later restructuring of the numerics must reproduce it to 1e-12 per cell.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from qfirstlaw import experiment

GOLDEN = Path(__file__).parent / "data" / "fig_golden.csv"
COLUMNS = experiment.CSV_COLUMNS + experiment.CSV_ORACLE_COLUMNS


def golden_rows(figure):
    with GOLDEN.open(newline="") as handle:
        return [row for row in csv.DictReader(handle) if row["figure"] == figure]


@pytest.mark.parametrize("figure", sorted(experiment.FIGURE_PRESETS))
def test_figure_matches_golden(figure):
    rows = golden_rows(figure)
    assert len(rows) == 41
    config = experiment.ExperimentConfig(
        channel=experiment.parse_channel(experiment.FIGURE_PRESETS[figure]),
        theta=math.pi / 6,
        emit_oracle=True,
    )
    result = experiment.run_experiment(config)
    ledger = result.ledger
    computed = {
        "tau": ledger.tau, "delta_u": ledger.delta_u, "work": ledger.work,
        "heat": ledger.heat, "coherence": ledger.coherence,
        "heat_oracle": result.heat_oracle, "coherence_oracle": result.coherence_oracle,
    }
    for name in COLUMNS:
        expected = np.array([float(row[name]) for row in rows])
        deviation = np.abs(computed[name][::100] - expected)
        worst = int(np.argmax(deviation))
        assert deviation[worst] <= 1e-12, (
            f"{figure} {name} at tau={rows[worst]['tau']}: off by {deviation[worst]:.3e}"
        )
