"""Every scalar bound, closed form or elimination, comes back as a flagged pair
or as finite positive values: never an exception, a warning, or an unflagged
value that is not finite and positive, however far the delay or the scale
sends its sums."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddcrb as d
from ddcrb.fim import eliminated_pair

from conftest import make_contained_train

B = (0.8 + 0.5j, -0.3 + 1.1j)


def train(contained: bool):
    if contained:
        return make_contained_train(n_p=12, delta=0.4, b=B)[0]
    # wide and centred near the period edge: adjacent copies overlap
    return d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, np.array(B))


def assert_flagged_or_finite(name, pair):
    assert isinstance(pair, d.BoundPair), name
    if pair.singular:
        assert pair.note and pair.tau0 == pair.f0 == math.inf, (name, pair)
    else:
        assert 0.0 < pair.tau0 < math.inf and 0.0 < pair.f0 < math.inf, (name, pair)


@settings(max_examples=80)
@given(contained=st.booleans(),
       tau0=st.one_of(st.floats(0.0, 1e200), st.sampled_from([0.0, 1e150, 1e200])),
       a=st.one_of(st.floats(-170.0, 170.0).map(lambda e: 10.0 ** e),
                   st.sampled_from([1e-170, 1e-160, 1e170])),
       l=st.integers(0, 3), p=st.integers(0, 3), sigma_w2=st.floats(1e-3, 1e3))
# each of these raised or returned an unflagged value that is not finite and positive
@example(contained=True, tau0=0.5, a=1e-170, l=1, p=1, sigma_w2=1.0)
@example(contained=True, tau0=0.5, a=1e170, l=1, p=1, sigma_w2=1.0)
@example(contained=True, tau0=0.5, a=1e-160, l=1, p=1, sigma_w2=1.0)
@example(contained=True, tau0=1e200, a=1.0, l=1, p=1, sigma_w2=1.0)
@example(contained=False, tau0=0.5, a=1e-158, l=1, p=1, sigma_w2=1.0)
def test_every_closed_form_is_flagged_or_finite_positive(contained, tau0, a, l, p, sigma_w2):
    pt = train(contained)
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=tau0, f0=0.3, looks_direct=l, looks_reflected=p,
                    sigma_w2=sigma_w2, scale=a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = {fn.__name__: fn(sig, sc) for fn in (
            d.jcrb_known, d.jcrb_unknown, d.crb_separate_unknown, d.crb_separate_unknown_a)}
        pairs.update((fn.__name__, fn(pt, sc)) for fn in (
            d.jcrb_known_signal_pulse, d.jcrb_structure_known_a))
        # past containment an elimination, read through the same one-point rule
        pairs.update(zip(("unknown_a_structure", "unknown_a_structure_separate"),
                         d.jcrb_unknown_a_structure(pt, sc)))
    for name, pair in pairs.items():
        assert_flagged_or_finite(name, pair)


@pytest.mark.parametrize("builder", ["fim_unknown_signal", "fim_known_structure"])
@pytest.mark.parametrize("a", [1e-150, 1e-162])
@pytest.mark.parametrize("name", ["cli_default", "truncated"])
def test_tiny_scale_fims_build_and_eliminate_flagged_or_finite(name, a, builder):
    # at L = 0 every block is a^2 times a sum: the PSD check measures them without
    # underflow, and one a^2 makes A, C and the (tau0, f0) border vanish together
    pt = train(False) if name == "truncated" else d.gaussian_pulse_train(
        500, 0.01, 4.0, 9.0, np.full(2, (1.0 + 1.0j) / np.sqrt(2.0)))
    arg = d.synthesize_pulse_train(pt) if builder == "fim_unknown_signal" else pt
    sc = d.Scenario(tau0=1e50, f0=0.3, looks_direct=0, looks_reflected=1, sigma_w2=1.0,
                    scale=a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = eliminated_pair(getattr(d, builder)(arg, sc))
    assert_flagged_or_finite(builder, pair)
