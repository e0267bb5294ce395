"""A change of time unit changes no singular flag and rescales every bound.

Measuring time in a unit s times smaller multiplies delta, tau0 and the
pulse times by s and divides f0 and every time derivative by s. A delay
variance then scales by s^2 and a Doppler variance by s^-2, whichever path
computed it: the closed forms, or the eliminated pairs of the three bordered
models (unknown samples, known structure, unknown scale with either basis).
"""

import numpy as np
import pytest

import ddcrb as d
from ddcrb.bounds import signal_bounds
from ddcrb.fim import eliminated_pair

from conftest import make_contained_train

UNITS = [10.0 ** k for k in range(-9, 4)]
B = (0.8 + 0.5j, -0.3 + 1.1j)


def train(kind, s):
    if kind == "contained":
        return make_contained_train(n_p=12, delta=0.4 * s, b=B)[0]
    # wide and centred near the period edge: adjacent copies overlap
    return d.gaussian_pulse_train(16, 0.25 * s, 3.0 * s, 1.5 * s * s, np.array(B))


def bounds_at(kind, s, l, p, a):
    """{name: (tau0 variance, f0 variance, singular)} at unit s."""
    pt = train(kind, s)
    sig = d.synthesize_pulse_train(pt)
    sc = d.Scenario(tau0=0.8 * s, f0=0.3 / s, looks_direct=l, looks_reflected=p,
                    sigma_w2=0.5, scale=a)
    pairs = dict(zip(("known", "unknown", "separate"), signal_bounds(sig, sc)))
    pairs.update({
        "unknown_signal_schur": eliminated_pair(d.fim_unknown_signal(sig, sc)),
        "known_structure_schur": eliminated_pair(d.fim_known_structure(pt, sc)),
        "unknown_a_samples_schur": eliminated_pair(d.fim_unknown_a(sig, sc)),
        "unknown_a_structure_schur": eliminated_pair(d.fim_unknown_a(pt, sc, structure=True)),
    })
    pairs.update(zip(("unknown_a_structure", "unknown_a_structure_separate"),
                     d.jcrb_unknown_a_structure(pt, sc)),
                 known_signal_pulse=d.jcrb_known_signal_pulse(pt, sc),
                 separate_unknown_a=d.crb_separate_unknown_a(sig, sc))
    if kind == "contained":
        # its truncated-train form is still the closed form (ROADMAP item 1)
        pairs.update(structure_known_a=d.jcrb_structure_known_a(pt, sc))
    return {name: (pair.tau0, pair.f0, pair.singular) for name, pair in pairs.items()}


@pytest.mark.parametrize("kind", ("contained", "truncated"))
@pytest.mark.parametrize("l,p,a", [(2, 1, 1.0), (1, 3, 1.5), (0, 1, 0.5)])
def test_flags_hold_and_bounds_scale_with_the_time_unit(kind, l, p, a):
    base = bounds_at(kind, 1.0, l, p, a)
    # L = 0: no unbiased joint estimator once the samples are unknown
    expect_singular = ({"unknown", "separate", "unknown_signal_schur", "separate_unknown_a"}
                       if l == 0 else set())
    assert expect_singular <= {name for name, (_, _, flag) in base.items() if flag}
    if l:
        assert not any(flag for _, _, flag in base.values())
    for s in UNITS:
        for name, (tau0, f0, flag) in bounds_at(kind, s, l, p, a).items():
            ref_tau0, ref_f0, ref_flag = base[name]
            assert flag == ref_flag, (name, s)
            if flag:
                continue
            assert tau0 == pytest.approx(ref_tau0 * s * s, rel=1e-9), (name, s)
            assert f0 == pytest.approx(ref_f0 / (s * s), rel=1e-9), (name, s)


def covariance_report(s, l):
    """crb_correlated of triangle_wave(40) at spacing s, white Sigma = 0.5 I."""
    base = d.triangle_wave(40)
    sig = d.SampledSignal(base.samples, s, base.deriv / s)
    sc = d.Scenario(tau0=2 * s, f0=0.1 / s, looks_direct=l, looks_reflected=1, sigma_w2=0.5)
    dim = (l + 1) * sc.record_samples(sig)
    model = d.build_stacked(sig, sc, 0.5 * np.eye(dim, dtype=complex))
    return d.crb_correlated(model, d.dc_list(model, sig, sc))


@pytest.mark.parametrize("l", [1, 0])
def test_covariance_null_directions_hold_at_every_time_unit(l):
    # L = 1: the common-phase gauge is the one null direction; L = 0: delay
    # trades off against signal timing, so the pair is not identifiable
    base = covariance_report(1.0, l)
    assert base.singular is (l == 0)
    for s in UNITS:
        rep = covariance_report(s, l)
        assert rep.singular is base.singular, s
        if l:
            assert rep.details["null_directions"] == 1, s
            assert rep.values["tau0"] == pytest.approx(base.values["tau0"] * s * s, rel=1e-9)
            assert rep.values["f0"] == pytest.approx(base.values["f0"] / (s * s), rel=1e-9)
