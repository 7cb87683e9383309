"""Pinned documents: sha256 of the canonical JSON (sort_keys=True) of small
runs of each statistical experiment, of the details of criteria 3, 5, 6, 7,
8, 9, 10 and 11 (some at reduced sizes), and of the exact stdout of the CLI
documents built on the carry machines and on the convolution solver.

The determinism contract says a document is byte-identical for a fixed
configuration, so any change of cone enumeration, id layout or draw
batching that alters a single symbol or tally changes a digest here.  A
digest may only change on purpose, with the change named in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from homoclinic_lab import acceptance, groups, montecarlo, rng
from homoclinic_lab.cli import main
from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.homoclinic import (Configuration, four_cover_lift,
                                       phi_exact, phi_windowed)
from homoclinic_lab.montecarlo import (ExperimentConfig, collision_search,
                                       empirical_fourier, haar_window_test,
                                       tau_invariance_test)
from homoclinic_lab.ring import parse_ring_element


def _cfg(**kw):
    base = dict(seed=77, samples=100)
    base.update(kw)
    return ExperimentConfig(**base)


CASES = {
    "haar_f2": lambda: haar_window_test(
        _cfg(sample_radius=8, eval_radius=2, bins=6)),
    "haar_z2": lambda: haar_window_test(
        _cfg(group=Z2, sample_radius=9, bins=5), max_extra=16),
    # z2 levels past 62, whose weighted totals pass int64
    "haar_z2_deep": lambda: haar_window_test(
        _cfg(group=Z2, sample_radius=70), max_extra=4),
    "collision_f2": lambda: collision_search(_cfg(samples=20), control=4),
    "collision_z2": lambda: collision_search(
        _cfg(samples=20, group=Z2), control=4),
    "tau": lambda: tau_invariance_test(_cfg(sample_radius=10)),
    "fourier_f2": lambda: empirical_fourier(
        _cfg(sample_radius=8), parse_ring_element("1 + a - 2*B")),
    "fourier_z2": lambda: empirical_fourier(
        _cfg(group=Z2, sample_radius=8), parse_ring_element("1 - b", Z2)),
}

DIGESTS = {
    "haar_f2":
        "645c5cd68f082c6875bdee814049d4d4604750a07e863e8747fda0c843bd7f87",
    "haar_z2":
        "66abc31e6d10d7615fa91fa1b70ca1d6c71ebb38b9f9d9bebf855fe2d7f35bca",
    "haar_z2_deep":
        "8b4f16d4a1de73ee0550608c11ee068cd7bb230798553f07635863249971666a",
    "collision_f2":
        "da9e81c5b7bbf46bb3c36d0d60cc55b428dc13824b73cae007b9d539368f76ba",
    "collision_z2":
        "ac0626e6483e9ec25f40ec2abb97bdf77896e80d59396f61791cce3bcb2f6f30",
    "tau":
        "5fc6d83eb12f0a9b5282535f99a22cf1a1e261452de0b09cf0408e7e6d23acf1",
    "fourier_f2":
        "4a7f58170e28e531cf0127dfcd96216e4d01258f13fa91d244d9a439d1396c38",
    "fourier_z2":
        "2e658c7200408c0f0676408aa4e019f0c668dbfe16e5e34d6520ff267584e4d0",
}

# the cases whose cone folds go past room for 4 kept levels
PAST_CACHE = ["haar_f2", "haar_z2", "haar_z2_deep", "collision_f2",
              "collision_z2"]


def digest(doc):
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_digest_is_pinned(name):
    assert digest(CASES[name]()) == DIGESTS[name]


def _low_budget(monkeypatch, store, levels):
    """Leave the kept levels room for one f2 cone to the given level only,
    as if other cones held the rest of their quarter of the budget: every
    level past that room is built per call, or per fold, from its parents'
    ids.  (Lowering the budget itself would refuse these folds, whose
    deepest levels need half of it.)"""
    room = montecarlo._STORE_BYTES // 4 - 8 * groups.cone_size(F2, levels)
    monkeypatch.setitem(store, "others", [np.empty(room, np.uint8)])


@pytest.mark.parametrize("name", PAST_CACHE)
def test_folds_past_the_id_cache_give_the_same_document(name, monkeypatch,
                                                        empty_store):
    # with a budget of 4 levels every base fold and every deepening step
    # past them takes the transient path that otherwise only levels past
    # the default budget take
    _low_budget(monkeypatch, empty_store, 4)
    assert digest(CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("group", [F2, Z2])
def test_pair_deepening_past_the_id_cache(group, monkeypatch, empty_store):
    # at pair depth 3 most pairs overlap and deepen level by level
    def run():
        return collision_search(_cfg(samples=20, group=group), control=1,
                                pair_depth=3)
    doc = run()
    assert doc["random_pairs"]["deepened"] > 0
    empty_store.clear()
    _low_budget(monkeypatch, empty_store, 2)
    assert run() == doc


# cover reduces a seeded window of the ball (f2 and z2, both with spill);
# tau at seed 17 carries through ten sites, at seed 39 it overflows; kernel,
# fourier and divide read coordinates of 1/f and g/f through the solver
CLI_RUNS = {
    "cover_f2": ("cover",),
    "cover_z2": ("cover", "--group", "z2"),
    "tau": ("tau",),
    "tau_cascade": ("tau", "--seed", "17"),
    "tau_overflow": ("tau", "--seed", "39"),
    "kernel_f2": ("kernel",),
    "kernel_z2": ("kernel", "--group", "z2"),
    "fourier_f2": ("fourier", "--g", "1 + a"),
    "fourier_z2": ("fourier", "--group", "z2", "--M", "4", "--g", "2 - a*b"),
    "divide_member": ("divide", "--g", "(1 + a - B)*(3 - a - b)"),
    "divide_non_member": ("divide", "--M", "5", "--g", "2 + a*b"),
}

CLI_DIGESTS = {
    "cover_f2":
        "d8e3260c38e3eb0025bfd93e26a05de2cba3b6143dd6ad08dc6b92f379bc2736",
    "cover_z2":
        "57f34c8ffc04a97b73d8ee2bb9c171c99e5c4f961b622f0f6ea08ac0b8d141c5",
    "tau":
        "d3d4da1e9364f3cd47f3237a7a5509bb06ad4405e829fa07f305d8fd27833c99",
    "tau_cascade":
        "e9973b6c6cd96ed579b4b4011039da6d0582418601b0dfbe2979411454757504",
    "tau_overflow":
        "994e32e363b11d3cfb0ca995f4053a85a0591bde23efed177f0bbeed9766bc6e",
    "kernel_f2":
        "db786ba646e0d052a7b575dc5093a79ef4bc86658c1f4b430a4ad2bb9944a8f2",
    "kernel_z2":
        "d9d130d4c2a513afc1741da8934cbb45712b25d691535d5db522c6d19211b23f",
    "fourier_f2":
        "96dd3df25ba7dad7349fb054765456e9d57c0a87add7a0c0c49e3b58aa39a4ee",
    "fourier_z2":
        "10a0fdd93b3ba632701830ddbaccd1527f15716137c349ada0b25685f36307f1",
    "divide_member":
        "3365a114fb3ca0861038f3751e8886d8605e3164b239f7434e48d15f28d01100",
    "divide_non_member":
        "01bf077118492f31e8f9422f76611e40971c34f4b5eb5778f8d5205ae9f065fa",
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_document_digest_is_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(CLI_RUNS[name]))
    assert code == (1 if name == "tau_overflow" else 0)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        CLI_DIGESTS[name]


def test_criterion_05_details_are_pinned():
    details = acceptance.criterion_05().details
    assert digest(details) == \
        "2a839dbdb74eb7531143a2c87b5a681df15f67081c6af2d08834a8c2a69269be"


# criterion 3 reads kernel masses, criterion 8 divides a battery by f
EXACT_CRITERIA = {
    3: "3c5458287e560c298142772ac2e9ed681acc46ebb4177ded98a4c1e9ff236582",
    8: "d561a14390cc4671b8689d14e533870f260e1bc7dcd6dbe95643ab2f5dcce571",
}


@pytest.mark.parametrize("number", sorted(EXACT_CRITERIA))
def test_exact_criterion_details_are_pinned(number):
    details = acceptance.CRITERIA[number - 1]().details
    assert digest(details) == EXACT_CRITERIA[number]


# criterion 9 at its own configuration (sample radius 12, up to 12 extra
# levels, so folds go to depth 24) with 200 samples: three folds reach
# depth 24 and twelve pass level 20
CRITERION_09_SAMPLES = 200
CRITERION_09_DIGEST = \
    "d23b25936df0a0582efb2c560430b99abc30c9ce3150b08d2f39637b200ca199"


def _reduced_criterion_digest(monkeypatch, criterion, samples):
    def reduced(**kw):
        return montecarlo.ExperimentConfig(**dict(kw, samples=samples))

    monkeypatch.setattr(acceptance, "ExperimentConfig", reduced)
    return digest(criterion().details)


def _criterion_09_digest(monkeypatch):
    return _reduced_criterion_digest(
        monkeypatch, acceptance.criterion_09, CRITERION_09_SAMPLES)


def test_criterion_09_details_are_pinned(monkeypatch):
    assert _criterion_09_digest(monkeypatch) == CRITERION_09_DIGEST


def test_criterion_09_past_a_low_id_cache(monkeypatch, empty_store):
    # with a budget of 4 levels every base fold builds levels past them on
    # the transient path, and every deepening step takes it too
    _low_budget(monkeypatch, empty_store, 4)
    assert _criterion_09_digest(monkeypatch) == CRITERION_09_DIGEST


# criterion 11's four transform estimates at 500 samples each, against
# certified values from the Fourier plan of g/f
def test_criterion_11_details_are_pinned(monkeypatch):
    assert _reduced_criterion_digest(
        monkeypatch, acceptance.criterion_11, 500) == \
        "f9adab642ee5a1c1d3df98e77731bf7866ad9066dbb176fde975008ee51a59ca"


# criterion 7 with 1,000 random pairs (it asks for 10,000 itself): the
# collision-mass identity, the control family, the pairs and the exact family
CRITERION_07_PAIRS = 1_000


def test_criterion_07_details_are_pinned(monkeypatch):
    assert _reduced_criterion_digest(
        monkeypatch, acceptance.criterion_07, CRITERION_07_PAIRS) == \
        "22596fb1bab02bc0e002bb6c5cfa34be8209c04481eeba443d4ff49c5676df90"


# criterion 10's two carry variants at 1,000 samples each
def test_criterion_10_details_are_pinned(monkeypatch):
    assert _reduced_criterion_digest(
        monkeypatch, acceptance.criterion_10, 1_000) == \
        "115e192d2aa733560cfe2da5cf6fbce31695e412c14d2a987846bad97e64c3c4"


# criterion 10 as it runs in report: 10,000 samples per variant
def test_criterion_10_full_details_are_pinned():
    assert digest(acceptance.criterion_10().details) == \
        "ae55aaf1cfb1eaffaaa63140ef4d0db9c32b9d45fa4bcd9e42c0ee397cda15d6"


# criterion 6's first 20 round trips per group (same seed, sample indices,
# support and windows): phi on ball(5), its lift, the exact coordinates on
# ball(1) and the enclosures of the lift there
ROUND_TRIP_SAMPLES = 20
ROUND_TRIP_DIGEST = \
    "de1f47739d9216a80229451eb52f467d163ae42e19d0aff72109adafe1a760f5"


def _coordinates(group, coords):
    return {groups.format_element(group, s): v.to_json_dict()
            for s, v in coords.items()}


def test_criterion_06_round_trips_are_pinned():
    M = 3
    docs = []
    for gi, group in enumerate((F2, Z2)):
        support = groups.ball(group, 2)
        ids = rng.element_ids(group, support)
        big, evals = groups.ball(group, 5), groups.ball(group, 1)
        for i in range(ROUND_TRIP_SAMPLES):
            vals = rng.symbols(acceptance.DEFAULT_SEED, gi * 500 + i, ids, M)
            d = Configuration(
                group, {s: int(v) for s, v in zip(support, vals)}, (0, M - 1))
            x = phi_exact(d, big, M)
            lifted = four_cover_lift(x, M)
            docs.append({
                "x": _coordinates(group, x),
                "lift": lifted.to_json_dict(),
                "exact": _coordinates(group, phi_exact(d, evals, M)),
                "enclosed": _coordinates(group, phi_windowed(lifted, evals, M)),
            })
    assert digest(docs) == ROUND_TRIP_DIGEST
