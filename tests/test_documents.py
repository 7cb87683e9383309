"""Pinned documents: sha256 of the canonical JSON (sort_keys=True) of small
runs of each statistical experiment.

The determinism contract says a document is byte-identical for a fixed
configuration, so any change of cone enumeration, id layout or draw
batching that alters a single symbol or tally changes a digest here.  A
digest may only change on purpose, with the change named in CHANGES.md.
"""

import hashlib
import json

import pytest

from homoclinic_lab import montecarlo
from homoclinic_lab.groups import F2, Z2
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

# the cases whose cone folds go past a cache cap of 4 levels
PAST_CACHE = ["haar_f2", "haar_z2", "collision_f2", "collision_z2"]


def digest(doc):
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_digest_is_pinned(name):
    assert digest(CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("name", PAST_CACHE)
def test_folds_past_the_id_cache_give_the_same_document(name, monkeypatch):
    # with 4 cached levels every base fold and every deepening step past
    # level 4 takes the transient path that otherwise only depth > 20 takes
    monkeypatch.setattr(montecarlo, "_CACHE_LEVELS", 4)
    assert digest(CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("group", [F2, Z2])
def test_pair_deepening_past_the_id_cache(group, monkeypatch):
    # at pair depth 3 most pairs overlap and deepen level by level
    def run():
        return collision_search(_cfg(samples=20, group=group), control=1,
                                pair_depth=3)
    doc = run()
    assert doc["random_pairs"]["deepened"] > 0
    monkeypatch.setattr(montecarlo, "_CACHE_LEVELS", 2)
    assert run() == doc
