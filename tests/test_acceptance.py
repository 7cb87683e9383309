"""One test per acceptance criterion, in order, printing one line each.

Every test calls the corresponding criterion function with the default seed
and asserts its verdict, so `pytest tests/test_acceptance.py -v` doubles as
the acceptance report.
"""

import os

from homoclinic_lab import acceptance


def _check(result):
    verdict = "PASS" if result.passed else "FAIL"
    print("criterion %d (%s): %s" % (result.number, result.name, verdict))
    assert result.passed, result.details


def test_local_pattern_counts():
    _check(acceptance.criterion_01())


def test_forced_pattern_completions():
    _check(acceptance.criterion_02())


def test_kernel_l1_masses():
    _check(acceptance.criterion_03())


def test_tree_combinatorics_and_cylinder_mass():
    # The cylinders sum to exactly 1.  The partial mass over tree sizes
    # <= 30 is only 0.999626... (short by 3.7e-4); the 1 - 1e-6 gate is met
    # first at tree size 71, and the criterion pins 70 outside and 71 inside.
    _check(acceptance.criterion_04())


def test_carry_conservation_identity():
    _check(acceptance.criterion_05())


def test_symbolic_cover_round_trip():
    _check(acceptance.criterion_06())


def test_injectivity_machinery():
    _check(acceptance.criterion_07())


def test_transform_membership_battery():
    _check(acceptance.criterion_08())


def test_statistical_uniformity_of_coordinates():
    # jobs never changes a document, so the slowest criterion uses every core
    _check(acceptance.criterion_09(jobs=os.cpu_count()))


def test_carry_map_invariance():
    _check(acceptance.criterion_10())


def test_estimator_consistency_with_certified_values():
    _check(acceptance.criterion_11())
