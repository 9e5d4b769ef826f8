"""Endurance ablation (extension beyond the paper's figures).

The paper motivates low write traffic with PCM's limited cell endurance
(Section I). This bench turns that motivation into a measurement: the
per-line wear each scheme inflicts on identical traces. Expected shape:

* Anubis' hottest line (a shadow-table slot mirroring a hot cache way)
  wears far faster than any line under STAR,
* strict persistence concentrates wear on the tree's upper levels,
* STAR's wear profile is essentially the baseline's.
"""

from conftest import SCALE

from repro.bench.runner import config_for_scale
from repro.sim.endurance import wear_report
from repro.sim.machine import Machine
from repro.workloads.registry import make_workload


def _wear_for(scheme: str, workload: str = "queue",
              operations: int = 400):
    config = config_for_scale(SCALE)
    machine = Machine(config, scheme=scheme)
    bench = make_workload(workload, config.num_data_lines,
                          operations=operations, seed=42)
    machine.run(bench.ops())
    return wear_report(machine.nvm)


def test_endurance_scheme_contrast():
    reports = {
        scheme: _wear_for(scheme)
        for scheme in ("wb", "strict", "anubis", "star")
    }
    # STAR's hottest line is no hotter than a small factor over WB
    assert reports["star"].max_wear <= 2 * reports["wb"].max_wear
    # Anubis concentrates wear on its shadow-table slots
    assert reports["anubis"].max_wear > reports["star"].max_wear
    # strict persistence hammers the metadata region hardest of all
    assert reports["strict"].max_wear >= reports["anubis"].max_wear
    assert reports["strict"].hottest_line[0] == "meta"


def test_endurance_lifetime_ordering():
    """Lifetime consumed per unit of work orders the schemes exactly
    as Fig. 11 orders their write traffic."""
    reports = {
        scheme: _wear_for(scheme, workload="array")
        for scheme in ("wb", "anubis", "star")
    }
    wb = reports["wb"].lifetime_fraction_consumed()
    star = reports["star"].lifetime_fraction_consumed()
    anubis = reports["anubis"].lifetime_fraction_consumed()
    assert wb <= star < anubis
