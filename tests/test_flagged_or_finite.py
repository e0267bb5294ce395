"""Every scalar bound, closed form or elimination, comes back as a flagged pair
or as finite positive values: never an exception, a warning, or an unflagged
value that is not finite and positive, however far the delay, the scale or the
pulse amplitudes and samples send its sums. Past the closed forms, each FIM
builder's eliminated pair is held to the same rule on the same trains."""

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


def train(contained: bool, factor: str = "b", amplitude: float = 1.0):
    """One of the two trains, with b, or g and g', times amplitude: one factor
    at a time, so the synthesized samples stay finite."""
    if contained:
        pt = make_contained_train(n_p=12, delta=0.4, b=B)[0]
    else:  # wide and centred near the period edge: adjacent copies overlap
        pt = d.gaussian_pulse_train(16, 0.25, 3.0, 1.5, np.array(B))
    if factor == "b":
        return d.PulseTrain(pt.g, pt.g_deriv, pt.b * amplitude, pt.delta)
    return d.PulseTrain(pt.g * amplitude, pt.g_deriv * amplitude, pt.b, pt.delta)


def assert_flagged_or_finite(name, pair):
    assert isinstance(pair, d.BoundPair), name
    if pair.singular:
        assert pair.note and pair.tau0 == pair.f0 == math.inf, (name, pair)
    else:
        assert 0.0 < pair.tau0 < math.inf and 0.0 < pair.f0 < math.inf, (name, pair)


BUILDERS = {
    "fim_unknown_signal": lambda pt, sc: d.fim_unknown_signal(d.synthesize_pulse_train(pt), sc),
    "fim_known_structure": d.fim_known_structure,
    "fim_unknown_a_structure": lambda pt, sc: d.fim_unknown_a(pt, sc, structure=True),
}
DEFAULTS = dict(factor="b", amplitude=1.0)


@settings(max_examples=80)
@given(contained=st.booleans(),
       tau0=st.one_of(st.floats(0.0, 1e200), st.sampled_from([0.0, 1e150, 1e200])),
       a=st.one_of(st.floats(-170.0, 170.0).map(lambda e: 10.0 ** e),
                   st.sampled_from([1e-170, 1e-160, 1e170])),
       l=st.integers(0, 3), p=st.integers(0, 3), sigma_w2=st.floats(1e-3, 1e3),
       factor=st.sampled_from(("b", "g")),
       amplitude=st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e))
# each of these raised or returned an unflagged value that is not finite and positive
@example(contained=True, tau0=0.5, a=1e-170, l=1, p=1, sigma_w2=1.0, **DEFAULTS)
@example(contained=True, tau0=0.5, a=1e170, l=1, p=1, sigma_w2=1.0, **DEFAULTS)
@example(contained=True, tau0=0.5, a=1e-160, l=1, p=1, sigma_w2=1.0, **DEFAULTS)
@example(contained=True, tau0=1e200, a=1.0, l=1, p=1, sigma_w2=1.0, **DEFAULTS)
@example(contained=False, tau0=0.5, a=1e-158, l=1, p=1, sigma_w2=1.0, **DEFAULTS)
# the unit-scale projection's sums overflow (a RuntimeWarning if not flagged)
@example(contained=False, tau0=3.8e153, a=1.0, l=1, p=1, sigma_w2=1.0, **DEFAULTS)
@example(contained=False, tau0=4.2e152, a=1.0, l=1, p=1, sigma_w2=1.0, **DEFAULTS)
# squares of finite amplitudes or pulse samples overflow (a RuntimeWarning if not flagged)
@example(contained=True, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="b", amplitude=1e154)
@example(contained=True, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="b", amplitude=1e200)
@example(contained=True, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="g", amplitude=1e154)
@example(contained=True, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="g", amplitude=1e200)
@example(contained=False, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="b", amplitude=1e154)
@example(contained=False, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="b", amplitude=1e200)
@example(contained=False, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="g", amplitude=1e154)
@example(contained=False, tau0=0.5, a=1.0, l=1, p=1, sigma_w2=1.0, factor="g", amplitude=1e200)
@example(contained=True, tau0=0.0, a=1.0, l=0, p=0, sigma_w2=51.0, factor="b", amplitude=1e-154)
# a pulse whose squares underflow: K = 0 while the time-weighted couplings are not
# (FIM not positive semidefinite), its energy subnormal (the same), and a subnormal
# a row eliminated (overflow and invalid values in the product)
@example(contained=True, tau0=1e150, a=1.0, l=0, p=1, sigma_w2=1.0, factor="g", amplitude=1e-176)
@example(contained=True, tau0=1e150, a=1.4984076502169026e-17, l=0, p=1, sigma_w2=1e-3,
         factor="g", amplitude=1.859377546948174e-156)
@example(contained=False, tau0=1e150, a=2.4e-16, l=1, p=1, sigma_w2=1.0, factor="g",
         amplitude=9.5e-160)
def test_every_closed_form_is_flagged_or_finite_positive(contained, tau0, a, l, p, sigma_w2,
                                                        factor, amplitude):
    pt = train(contained, factor, amplitude)
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
        if p:  # the builders need a reflected look
            pairs.update((name, eliminated_pair(build(pt, sc))) for name, build in BUILDERS.items())
    for name, pair in pairs.items():
        assert_flagged_or_finite(name, pair)


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("a", [1e-150, 1e-158, 1e-160, 1e-162])
@pytest.mark.parametrize("name", ["cli_default", "truncated"])
def test_tiny_scale_fims_build_and_eliminate_flagged_or_finite(name, a, builder):
    # at L = 0 every block is a^2 times a sum: the PSD check measures them without
    # underflow, and one a^2 makes A, C and the (tau0, f0) border vanish together.
    # A structured FIM's eliminated block is a^2 times a unit-scale difference, so
    # a subnormal a^2 (1e-158, 1e-160) costs it no sign; at 1e-162 a^2 and C are 0
    # and it goes dense. At tau0 = 1e50 the Doppler information is lost to
    # cancellation, so every pair is flagged
    pt = train(False) if name == "truncated" else d.gaussian_pulse_train(
        500, 0.01, 4.0, 9.0, np.full(2, (1.0 + 1.0j) / np.sqrt(2.0)))
    sc = d.Scenario(tau0=1e50, f0=0.3, looks_direct=0, looks_reflected=1, sigma_w2=1.0,
                    scale=a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fim = BUILDERS[builder](pt, sc)
        pair = eliminated_pair(fim)
    assert_flagged_or_finite(builder, pair)
    assert pair.singular
    assert (fim.border.eliminated is not None) is (builder != "fim_unknown_signal" and a > 1e-162)
