"""Shared helpers for the test suite."""

import numpy as np


def max_se_ratio(mean_a, se_a, mean_b, se_b):
    """Largest |a - b| / sqrt(se_a^2 + se_b^2) over the arrays.

    Entries where both standard errors are zero must agree exactly and are
    reported as 0 when they do (inf otherwise), so a `< 3` check covers the
    deterministic points too.
    """
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    diff = np.abs(mean_a - mean_b)
    combined = np.sqrt(np.asarray(se_a, dtype=float) ** 2
                       + np.asarray(se_b, dtype=float) ** 2)
    ratio = np.zeros_like(diff)
    noisy = combined > 0
    ratio[noisy] = diff[noisy] / combined[noisy]
    ratio[~noisy & (diff > 0)] = np.inf
    return float(ratio.max())


def plain_se(values):
    """Standard error of the mean of a 1-d sample."""
    values = np.asarray(values)
    n = values.shape[0]
    return float(np.std(values, ddof=1) / np.sqrt(n))


def pytest_collection_modifyitems(items):
    """Run the acceptance gate after every other test.

    The gate's desk-scale criteria take about twenty minutes; the rest of the
    suite takes under half a minute.  Putting the gate last means a run that
    is cut short still reports every unit test.  The sort is stable, so the
    order within each group is unchanged.
    """
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
