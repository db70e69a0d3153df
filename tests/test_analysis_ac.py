"""AC analysis tests: known transfer functions, batching, linearity,
and the pole-residue sweep against the direct per-frequency solve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.analysis import ac_analysis, dc_operating_point, log_frequencies
from repro.analysis.ac import _direct_sweep
from repro.circuit import (VCVS, Capacitor, Circuit, CurrentSource, Inductor,
                           Mosfet, Resistor, VoltageSource)
from repro.designs.filter2 import (FilterCaps, build_filter_transistor,
                                   filter_frequency_grid)
from repro.designs.miller import MillerParameters, build_miller_ota
from repro.designs.ota import (OTAParameters, build_ota,
                               default_frequency_grid)
from repro.measure.acmeas import phase_margin
from repro.process import C35


def rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit("rc")
    circuit.add(VoltageSource("V1", "in", "0", 0.0, ac_mag=1.0))
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", "0", c))
    return circuit


class TestFrequencyGrid:
    def test_log_frequencies_endpoints(self):
        freqs = log_frequencies(10.0, 1e6, 10)
        assert freqs[0] == pytest.approx(10.0)
        assert freqs[-1] == pytest.approx(1e6)

    def test_points_per_decade(self):
        freqs = log_frequencies(1.0, 1e3, 10)
        assert freqs.size == 31

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            log_frequencies(0.0, 1e3)
        with pytest.raises(ValueError):
            log_frequencies(1e3, 1e3)


class TestRCLowpass:
    def test_matches_analytic_everywhere(self):
        r, c = 1e3, 1e-9
        circuit = rc_lowpass(r, c)
        freqs = log_frequencies(1e2, 1e8, 15)
        res = ac_analysis(circuit, freqs)
        measured = res.v("out")[0]
        analytic = 1.0 / (1.0 + 2j * np.pi * freqs * r * c)
        np.testing.assert_allclose(measured, analytic, rtol=1e-9)

    def test_phase_at_corner(self):
        r, c = 1e3, 1e-9
        f0 = 1.0 / (2 * np.pi * r * c)
        res = ac_analysis(rc_lowpass(r, c), [f0])
        assert res.phase_deg("out")[0, 0] == pytest.approx(-45.0, abs=0.01)

    def test_magnitude_db(self):
        res = ac_analysis(rc_lowpass(), [1.0])
        assert res.magnitude_db("out")[0, 0] == pytest.approx(0.0, abs=1e-5)


class TestSecondOrder:
    def test_rlc_bandpass_peak(self):
        circuit = Circuit("rlc")
        circuit.add(CurrentSource("I1", "0", "n", 0.0, ac_mag=1.0))
        circuit.add(Resistor("R1", "n", "0", 1e3))
        circuit.add(Inductor("L1", "n", "0", 1e-6))
        circuit.add(Capacitor("C1", "n", "0", 1e-9))
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-6 * 1e-9))
        freqs = np.array([f0 / 10, f0, f0 * 10])
        res = ac_analysis(circuit, freqs)
        mags = np.abs(res.v("n")[0])
        # At resonance, L || C is open: |Z| = R.
        assert mags[1] == pytest.approx(1e3, rel=1e-6)
        assert mags[0] < mags[1] and mags[2] < mags[1]


class TestTransferAccessors:
    def test_transfer_ratio(self):
        circuit = rc_lowpass()
        circuit.add(Resistor("Rsrc", "in", "0", 1e6))  # extra load on in
        res = ac_analysis(circuit, [1e3])
        h = res.transfer("out", "in")
        assert np.abs(h[0, 0]) <= 1.0

    def test_ground_node_zero(self):
        res = ac_analysis(rc_lowpass(), [1e3])
        assert np.all(res.v("0") == 0)

    def test_unwrapped_phase_monotone_for_lowpass(self):
        res = ac_analysis(rc_lowpass(), log_frequencies(10, 1e8, 10))
        phase = res.phase_deg("out")[0]
        assert np.all(np.diff(phase) <= 1e-9)
        assert phase[-1] > -95.0  # single pole: never beyond -90


class TestLinearity:
    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=100.0))
    def test_response_scales_with_excitation(self, scale):
        base = ac_analysis(rc_lowpass(), [1e5]).v("out")[0, 0]
        circuit = rc_lowpass()
        circuit.element("V1").ac_mag = scale
        scaled = ac_analysis(circuit, [1e5]).v("out")[0, 0]
        assert scaled == pytest.approx(scale * base, rel=1e-9)

    def test_superposition(self):
        def build(ac1, ac2):
            c = Circuit("sum")
            c.add(VoltageSource("V1", "a", "0", 0.0, ac_mag=ac1))
            c.add(CurrentSource("I1", "0", "out", 0.0, ac_mag=ac2))
            c.add(Resistor("R1", "a", "out", 1e3))
            c.add(Resistor("R2", "out", "0", 1e3))
            return ac_analysis(c, [1e4]).v("out")[0, 0]

        both = build(1.0, 1e-3)
        only_v = build(1.0, 0.0)
        only_i = build(0.0, 1e-3)
        assert both == pytest.approx(only_v + only_i, rel=1e-12)


class TestWithTransistors:
    def test_cs_amplifier_gain_matches_small_signal(self):
        c = Circuit("cs")
        c.add(VoltageSource("VDD", "vdd", "0", 3.3))
        c.add(VoltageSource("VG", "g", "0", 0.9, ac_mag=1.0))
        c.add(Resistor("RD", "vdd", "d", 1e4))
        c.add(Mosfet("M1", "d", "g", "0", "0", C35.nmos, 10e-6, 1e-6))
        op = dc_operating_point(c)
        info = op.device("M1")
        expected = float(info["gm"][0]) / (1e-4 + float(info["gds"][0]))
        res = ac_analysis(c, [1e3], op=op)
        assert np.abs(res.v("d")[0, 0]) == pytest.approx(expected, rel=1e-3)

    def test_op_reuse_gives_same_answer(self):
        c = Circuit("cs")
        c.add(VoltageSource("VDD", "vdd", "0", 3.3))
        c.add(VoltageSource("VG", "g", "0", 0.9, ac_mag=1.0))
        c.add(Resistor("RD", "vdd", "d", 1e4))
        c.add(Mosfet("M1", "d", "g", "0", "0", C35.nmos, 10e-6, 1e-6))
        op = dc_operating_point(c)
        a = ac_analysis(c, [1e6], op=op).v("d")
        b = ac_analysis(c, [1e6]).v("d")
        np.testing.assert_allclose(a, b, rtol=1e-9)


class TestBatchedAC:
    def test_batch_matches_scalars(self):
        caps = np.array([1e-9, 2e-9, 5e-9])
        circuit = rc_lowpass(c=caps)
        freqs = log_frequencies(1e3, 1e7, 5)
        batched = ac_analysis(circuit, freqs)
        for lane, c in enumerate(caps):
            single = ac_analysis(rc_lowpass(c=float(c)), freqs)
            np.testing.assert_allclose(batched.v("out")[lane],
                                       single.v("out")[0], rtol=1e-12)

    def test_result_shapes(self):
        circuit = rc_lowpass(c=np.array([1e-9, 2e-9]))
        freqs = log_frequencies(1e3, 1e6, 4)
        res = ac_analysis(circuit, freqs)
        assert res.batch == 2
        assert res.v("out").shape == (2, freqs.size)


# ---------------------------------------------------------------------------
# pole-residue sweep vs the direct per-frequency solve
# ---------------------------------------------------------------------------

REFERENCE_OTA = np.array([3e-05, 1e-06, 6e-05, 1e-06, 1e-05, 2e-06,
                          2e-05, 2e-06])
LANES = 24


def direct_solution(result):
    """``(B, F, N)`` by one stacked complex solve per frequency."""
    G, C, u = result.assembler.ac_system(result.op.x)
    return _direct_sweep(G, C, u, result.freqs)


def fallback_count(run):
    """``analysis.ac.fallback_lanes`` added while ``run()`` executes."""
    before = telemetry.REGISTRY.counter_value("analysis.ac.fallback_lanes")
    result = run()
    after = telemetry.REGISTRY.counter_value("analysis.ac.fallback_lanes")
    return result, after - before


def peak_relative_error(x, reference):
    """Per lane and unknown: the largest deviation over the sweep,
    relative to that unknown's peak response."""
    error = np.abs(x - reference).max(axis=1)
    scale = np.abs(reference).max(axis=1)
    return error / np.maximum(scale, 1e-300)


def buffered_rc_cascade(taus):
    """RC sections joined by unity buffers: ``prod 1/(1 + s*tau_k)``.

    Equal time constants give a defective (Jordan-block) pole."""
    circuit = Circuit("rc cascade")
    circuit.add(VoltageSource("V1", "n0", "0", 0.0, ac_mag=1.0))
    node = "n0"
    for k, tau in enumerate(taus):
        circuit.add(Resistor(f"R{k}", node, f"m{k}", 1e3))
        circuit.add(Capacitor(f"C{k}", f"m{k}", "0", np.asarray(tau) / 1e3))
        circuit.add(VCVS(f"E{k}", f"b{k}", "0", f"m{k}", "0", 1.0))
        node = f"b{k}"
    return circuit


def _ota_params(lanes):
    return OTAParameters.from_array(np.repeat(REFERENCE_OTA[None], lanes, 0))


def _tail_sigma(lanes):
    """5-sigma global corners: every dimension pushed to +-5 sigma."""
    x = np.zeros((lanes, 5))
    for lane in range(lanes):
        x[lane, lane % 5] = 5.0 if lane % 2 == 0 else -5.0
    return x


EQUIVALENCE_CASES = {
    "ota": lambda rng: (build_ota(
        _ota_params(LANES), pdk=C35, variations=C35.sample(LANES, rng),
        cl=10e-12, ibias=20e-6, vcm=1.2), default_frequency_grid(), "out"),
    "ota-5sigma-tail": lambda rng: (build_ota(
        _ota_params(LANES), pdk=C35, variations=C35.sample_from_sigma(
            _tail_sigma(LANES), rng=rng, include_mismatch=True),
        cl=10e-12, ibias=20e-6, vcm=1.2), default_frequency_grid(), "out"),
    "miller": lambda rng: (build_miller_ota(
        MillerParameters(), variations=C35.sample(LANES, rng)),
        default_frequency_grid(), "out"),
    "filter2": lambda rng: (build_filter_transistor(
        FilterCaps(), OTAParameters.from_array(REFERENCE_OTA),
        variations=C35.sample(LANES, rng)), filter_frequency_grid(), "v2"),
}


class TestPoleResidueSweep:
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_direct_solve(self, case):
        circuit, freqs, out = EQUIVALENCE_CASES[case](
            np.random.default_rng(13))
        result, fallbacks = fallback_count(lambda: ac_analysis(circuit,
                                                                freqs))
        assert fallbacks == 0
        reference = direct_solution(result)
        out_index = result.assembler.topology.index_of(out)
        ref_mag = 20.0 * np.log10(np.abs(reference[:, :, out_index]))
        ref_phase = np.degrees(np.unwrap(np.angle(reference[:, :, out_index]),
                                         axis=-1))
        mag = result.magnitude_db(out)
        phase = result.phase_deg(out)
        assert np.max(np.abs(mag - ref_mag)) <= 1e-6
        if case != "filter2":
            assert np.max(np.abs(phase_margin(freqs, mag, phase)
                                 - phase_margin(freqs, ref_mag, ref_phase))
                          ) <= 1e-5
        assert np.max(peak_relative_error(result.x, reference)) <= 1e-6

    def test_defective_pole_falls_back(self):
        # Lane 0: a triple pole (defective); lane 1: three distinct poles.
        taus = [np.array([1e-6, 1e-6 * (1.0 + 0.5 * k)]) for k in range(3)]
        freqs = log_frequencies(1e2, 1e8, 10)
        result, fallbacks = fallback_count(
            lambda: ac_analysis(buffered_rc_cascade(taus), freqs))
        assert fallbacks == 1
        s = 2j * np.pi * freqs
        for lane in range(2):
            analytic = np.prod([1.0 / (1.0 + s * tau[lane]) for tau in taus],
                               axis=0)
            np.testing.assert_allclose(result.v("m2")[lane], analytic,
                                       rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(result.x[0], direct_solution(result)[0])

    def test_conditioning_limit_forces_fallback(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.ac.MAX_EIGVEC_CONDITION", 1.0)
        circuit = rc_lowpass(c=np.array([1e-9, 2e-9]))
        circuit.add(Resistor("R2", "out", "mid", 1e3))
        circuit.add(Capacitor("C2", "mid", "0", 1e-9))
        freqs = log_frequencies(1e3, 1e7, 5)
        result, fallbacks = fallback_count(lambda: ac_analysis(circuit, freqs))
        assert fallbacks == 2
        np.testing.assert_array_equal(result.x, direct_solution(result))

    def test_resistive_circuit_uses_direct_solve(self):
        circuit = Circuit("divider")
        circuit.add(VoltageSource("V1", "in", "0", 0.0, ac_mag=2.0))
        circuit.add(Resistor("R1", "in", "out", np.array([1e3, 3e3])))
        circuit.add(Resistor("R2", "out", "0", 1e3))
        freqs = log_frequencies(1e3, 1e6, 4)
        result, fallbacks = fallback_count(lambda: ac_analysis(circuit, freqs))
        assert fallbacks == 2
        expected = 2.0 * 1e3 / (np.array([1e3, 3e3]) + 1e3)
        np.testing.assert_allclose(
            result.v("out"), np.repeat(expected[:, None], freqs.size, 1),
            rtol=1e-12)

    @pytest.mark.parametrize("source", ["voltage", "current"])
    def test_ac_phase_is_kept(self, source):
        r, c, degrees = 1e3, 1e-9, 30.0
        circuit = Circuit("phased rc")
        if source == "voltage":
            circuit.add(VoltageSource("V1", "in", "0", 0.0, ac_mag=1.0,
                                      ac_phase_deg=degrees))
            circuit.add(Resistor("R1", "in", "out", r))
        else:  # a Norton source: 1/r into r || c
            circuit.add(CurrentSource("I1", "0", "out", 0.0, ac_mag=1.0 / r,
                                      ac_phase_deg=degrees))
            circuit.add(Resistor("R1", "out", "0", r))
        circuit.add(Capacitor("C1", "out", "0", c))
        freqs = log_frequencies(1e3, 1e8, 10)
        result = ac_analysis(circuit, freqs)
        analytic = (np.exp(1j * np.radians(degrees))
                    / (1.0 + 2j * np.pi * freqs * r * c))
        np.testing.assert_allclose(result.v("out")[0], analytic, rtol=1e-12)

    def test_x_stacks_every_unknown(self):
        circuit, freqs, _ = EQUIVALENCE_CASES["ota"](np.random.default_rng(5))
        result = ac_analysis(circuit, freqs)
        topology = result.assembler.topology
        per_node = {name: result.v(name).copy() for name in topology.node_names}
        x = result.x
        assert x.shape == (result.batch, freqs.size, topology.n_unknowns)
        for name, values in per_node.items():
            np.testing.assert_array_equal(x[:, :, topology.index_of(name)],
                                          values)
        # A fresh result builds x before any node is read: same values.
        np.testing.assert_array_equal(ac_analysis(circuit, freqs).x, x)

    def test_lane_alone_equals_lane_in_batch_with_fallbacks(self):
        taus = [np.array([1e-6, 1e-6 * (1.0 + 0.5 * k), 1e-6])
                for k in range(3)]
        freqs = log_frequencies(1e2, 1e8, 10)
        batch, fallbacks = fallback_count(
            lambda: ac_analysis(buffered_rc_cascade(taus), freqs))
        assert fallbacks == 2  # lanes 0 and 2 hold the triple pole
        alone = ac_analysis(buffered_rc_cascade([float(tau[1]) for tau in taus]),
                            freqs)
        np.testing.assert_allclose(batch.x[1], alone.x[0], rtol=1e-12,
                                   atol=0.0)
