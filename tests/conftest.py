import itertools

import numpy as np
import pytest

from tracecc import FieldElement, SweepSpec, make_field, run_sweep

# every (p, m) reachable by the default sweep, p^m <= 10^5
SWEEP_POINTS = [(p, m) for p in (3, 5, 7) for m in range(2, 6)]


def enumerate_field(field, nonzero_only=False):
    """Yield every element of the field exactly once in canonical order, by scalar coefficients."""
    for coeffs in itertools.product(range(field.p), repeat=field.m):
        if nonzero_only and not any(coeffs):
            continue
        yield FieldElement(field, coeffs)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def f27():
    return make_field(3, 3)


@pytest.fixture(scope="session")
def f25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def f49():
    return make_field(7, 2)


@pytest.fixture(scope="session")
def sweep_fields():
    return {(p, m): make_field(p, m) for p, m in SWEEP_POINTS}


@pytest.fixture(scope="session")
def full_sweep_report():
    """The default full sweep; shared by the acceptance tests."""
    return run_sweep(SweepSpec())


def spike_spectra(field, offset, row=1):
    """Put the field's trace spectra off by a spike of `offset` at the start of the
    second period of symbol `row`'s sequence: N[g^i, row] moves by the offset for
    every i with log d = q - 1 - i, d in the defining set. A row sum adds N[g^k, 1]
    over each k = i mod e, so a spike in either row moves some row's sum."""
    spectra = field.trace_spectra.copy()
    spike = np.zeros(2 * (spectra.shape[1] - 1))
    spike[field.q - 1] = offset
    spectra[row] += np.fft.rfft(spike)
    field.__dict__["trace_spectra"] = spectra  # where the cached property keeps it
