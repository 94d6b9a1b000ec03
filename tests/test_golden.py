"""Golden sweep outputs: any drift in trajectory outcomes changes these.

The integer aggregates and the ``sweep.csv`` bytes below were recorded
with the digest-based ``evolve`` that preceded the raw-array kernel with
Brent cycle detection; both implementations must produce them exactly.
The 8x8 sweep runs with a small cap, so fixed, periodic and unresolved
outcomes all contribute.
"""

import json

import pytest

from groupform import SweepConfig, TorusShape, sample_points
from groupform.cli import main

ONEDIM = dict(dims=[300], p_max=0.8, p_steps=4, samples=20, master_seed=2112)
CAPPED_2D = dict(dims=[8, 8], p_max=0.8, p_steps=4, samples=20, master_seed=2112, max_steps=12)

# (samples, fixed, periodic, unresolved, n_st_sum, fixed_initial_mass_sum,
#  count_sums, count_sq_sums, tail_sum, tail_sq_sum) per grid point
ONEDIM_AGGREGATE = [
    (20, 20, 0, 0, 0, 0, {}, {}, 0, 0),
    (20, 20, 0, 0, 85, 1212, {1: 1183, 2: 13, 3: 1}, {1: 70881, 2: 19, 3: 1}, 0, 0),
    (20, 20, 0, 0, 267, 2382, {1: 1904, 2: 227, 3: 8}, {1: 182244, 2: 3083, 3: 10}, 0, 0),
    (
        20, 20, 0, 0, 456, 3598,
        {1: 1280, 2: 815, 3: 196, 4: 25},
        {1: 84998, 2: 33831, 3: 2564, 4: 67},
        0, 0,
    ),
    (
        20, 20, 0, 0, 646, 4766,
        {1: 429, 2: 758, 3: 594, 4: 167, 5: 57, 6: 12, 7: 2},
        {1: 9869, 2: 29370, 3: 17984, 4: 1601, 5: 247, 6: 16, 7: 2},
        71, 355,
    ),
]

CAPPED_2D_AGGREGATE = [
    (20, 20, 0, 0, 0, 0, {}, {}, 0, 0),
    (20, 13, 2, 5, 60, 170, {1: 131, 2: 16, 3: 1, 4: 1}, {1: 1401, 2: 50, 3: 1, 4: 1}, 0, 0),
    (
        20, 9, 0, 11, 81, 241,
        {1: 36, 2: 33, 3: 17, 4: 10, 5: 2, 6: 1, 8: 4},
        {1: 186, 2: 137, 3: 41, 4: 26, 5: 2, 6: 1, 8: 6},
        7, 11,
    ),
    (
        20, 9, 1, 10, 90, 319,
        {1: 27, 2: 21, 3: 17, 4: 6, 5: 5, 6: 3, 7: 2, 8: 4, 9: 3, 10: 2, 11: 1, 12: 1, 16: 1},
        {1: 103, 2: 63, 3: 57, 4: 8, 5: 7, 6: 5, 7: 2, 8: 4, 9: 3, 10: 2, 11: 1, 12: 1, 16: 1},
        22, 68,
    ),
    (
        20, 10, 1, 9, 101, 503,
        {1: 16, 2: 13, 3: 11, 4: 13, 5: 2, 6: 7, 7: 12, 8: 5, 9: 5, 10: 5, 11: 2, 12: 1, 13: 2, 15: 3},
        {1: 46, 2: 27, 3: 35, 4: 29, 5: 2, 6: 11, 7: 24, 8: 7, 9: 5, 10: 5, 11: 2, 12: 1, 13: 2, 15: 5},
        44, 202,
    ),
]

ONEDIM_CSV = """\
p,r,mean_Q,stderr_Q,mean_N_st,fixed_count,periodic_count,unresolved_count,samples
0.0,0,,,0.0,20,0,0,20
0.0,1,0.0,0.0,,,,,
0.0,2,0.0,0.0,,,,,
0.0,3,0.0,0.0,,,,,
0.0,4,0.0,0.0,,,,,
0.0,tail,0.0,0.0,,,,,
0.2,0,,,4.25,20,0,0,20
0.2,1,0.19716666666666666,0.005148525025822498,,,,,
0.2,2,0.0021666666666666666,0.0005554093374833941,,,,,
0.2,3,0.0001666666666666667,0.00016666666666666666,,,,,
0.2,4,0.0,0.0,,,,,
0.2,tail,0.0,0.0,,,,,
0.4,0,,,13.35,20,0,0,20
0.4,1,0.31733333333333336,0.005361766314536306,,,,,
0.4,2,0.03783333333333333,0.0038485586274307855,,,,,
0.4,3,0.0013333333333333335,0.00044590403603995905,,,,,
0.4,4,0.0,0.0,,,,,
0.4,tail,0.0,0.0,,,,,
0.6000000000000001,0,,,22.8,20,0,0,20
0.6000000000000001,1,0.21333333333333335,0.009486832980505138,,,,,
0.6000000000000001,2,0.13583333333333333,0.0042569173152928125,,,,,
0.6000000000000001,3,0.03266666666666667,0.004336705840134843,,,,,
0.6000000000000001,4,0.004166666666666667,0.001022409720917647,,,,,
0.6000000000000001,tail,0.0,0.0,,,,,
0.8,0,,,32.3,20,0,0,20
0.8,1,0.0715,0.004416045967639389,,,,,
0.8,2,0.12633333333333333,0.0043319835954612074,,,,,
0.8,3,0.09899999999999999,0.003163202167616922,,,,,
0.8,4,0.02783333333333333,0.0024575340657273753,,,,,
0.8,tail,0.011833333333333333,0.001735002570063991,,,,,
"""


def _aggregate(payload):
    config = SweepConfig.from_json_dict(payload)
    points = sample_points(config.job())
    return [
        (
            s.samples,
            s.fixed_count,
            s.periodic_count,
            s.unresolved_count,
            s.n_st_sum,
            s.fixed_initial_mass_sum,
            s.count_sums,
            s.count_sq_sums,
            s.tail_sum,
            s.tail_sq_sum,
        )
        for s in points
    ]


@pytest.mark.parametrize(
    "payload, expected",
    [(ONEDIM, ONEDIM_AGGREGATE), (CAPPED_2D, CAPPED_2D_AGGREGATE)],
    ids=["onedim_m300", "capped_8x8"],
)
def test_sweep_aggregate(payload, expected):
    assert _aggregate(payload) == expected


def test_sweep_csv_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ONEDIM))
    out = tmp_path / "out"
    assert main(["sweep", str(config), "--out", str(out), "--threads", "1"]) == 0
    assert (out / "sweep.csv").read_bytes() == ONEDIM_CSV.encode()
