import json
import math
import re
import statistics
from dataclasses import replace

import numpy as np
import pytest

from opatomo import experiments, reconstruct
from opatomo.chain import BATCH_CHUNK, ChainParams, ConfigError, HomodyneDetector, run_batch
from opatomo.distill import NotConcave
from opatomo.experiments import (
    GAIN_SWEEP_FOLD_D,
    SweepRow,
    SweepSpec,
    _gain_sweep_params,
    homodyne_comparison,
    robustness_sweep,
    saturation_gain,
    squeezing_table,
    sweep_displacement,
    sweep_gain,
)
from opatomo.hist import QuadratureHistogram
from opatomo.reconstruct import (
    METHODS,
    PositivityViolation,
    check_positivity,
    fold_displacement,
    near_zero_fraction,
)
from opatomo.states import SourceState, preset


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        experiment="displacement",
        state="sq",
        methods=("standard", "displaced"),
        param="displacement",
        grid=(50.0, 100.0),
        n_shots=2_000,
        repeats=2,
        seed=0,
    )
    base.update(overrides)
    return SweepSpec(**base)


# -- spec bookkeeping -----------------------------------------------------------

def test_spec_hash_is_deterministic_and_sensitive():
    a, b = small_spec(), small_spec()
    assert a.spec_hash() == b.spec_hash()
    assert small_spec(seed=1).spec_hash() != a.spec_hash()
    assert small_spec(n_shots=2_001).spec_hash() != a.spec_hash()


def test_file_stem_pattern():
    assert re.fullmatch(r"displacement_sq_[0-9a-f]{8}", small_spec().file_stem())


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(grid=()).validate()
    with pytest.raises(ValueError):
        small_spec(grid=(2.0, 1.0)).validate()
    with pytest.raises(ValueError):
        small_spec(repeats=0).validate()
    with pytest.raises(ValueError):
        small_spec(n_shots=0).validate()


def test_spec_refuses_an_unknown_state_as_a_config_error():
    with pytest.raises(ConfigError, match="^state: unknown preset 'nope'; known: vac,") as info:
        small_spec(state="nope").validate()
    assert info.value.field == "state"


def test_spec_rejects_non_positive_bin_width():
    with pytest.raises(ValueError, match="bin_width"):
        small_spec(bin_width=0).validate()
    with pytest.raises(ValueError, match="bin_width"):
        small_spec(bin_width=-0.05).validate()


@pytest.mark.parametrize("width", [math.inf, math.nan])
def test_spec_rejects_non_finite_bin_width(width):
    with pytest.raises(ConfigError) as info:
        small_spec(bin_width=width).validate()
    assert info.value.field == "bin_width"


# -- output files ----------------------------------------------------------------

def test_sweep_outputs_are_byte_deterministic(tmp_path):
    paths = []
    for sub in ("a", "b"):
        result = sweep_displacement(small_spec())
        paths.append(result.to_csv(str(tmp_path / sub)))
    for left, right in zip(*paths):
        with open(left, "rb") as fh:
            first = fh.read()
        with open(right, "rb") as fh:
            second = fh.read()
        assert first == second
    with open(paths[0][0]) as fh:
        header = fh.readline().strip()
    assert header == "param_value,method,mean_infidelity,std_infidelity,aux_json"


def test_sweep_json_carries_spec_and_summary(tmp_path):
    result = sweep_displacement(small_spec())
    _, json_path = result.to_csv(str(tmp_path))
    with open(json_path) as fh:
        payload = json.load(fh)
    assert payload["spec"]["state"] == "sq"
    assert "plateau_level" in payload["summary"]


# -- displacement sweep ------------------------------------------------------------

def test_displacement_sweep_rows_and_summary():
    result = sweep_displacement(small_spec())
    assert len(result.rows) == 4  # 2 grid points x 2 methods
    for key in ("optimal_d", "plateau_level", "plateau_lo", "plateau_hi",
                "standard_reference"):
        assert key in result.summary
    disp = [r for r in result.rows if r.method == "displaced"]
    assert all("near_zero_fraction" in r.aux for r in disp)


def test_standard_reference_is_replicated_bitwise():
    result = sweep_displacement(small_spec(grid=(10.0, 100.0, 1000.0)))
    std_rows = [r for r in result.rows if r.method == "standard"]
    assert len(std_rows) == 3
    assert len({r.mean_infidelity for r in std_rows}) == 1
    assert len({r.std_infidelity for r in std_rows}) == 1


def test_repeat_seeds_pair_methods_bitwise():
    solo = sweep_displacement(small_spec(methods=("displaced",)))
    both = sweep_displacement(small_spec())
    solo_rows = {r.param_value: r for r in solo.rows}
    both_rows = {r.param_value: r for r in both.rows if r.method == "displaced"}
    for d, row in solo_rows.items():
        assert both_rows[d].mean_infidelity == row.mean_infidelity
        assert both_rows[d].std_infidelity == row.std_infidelity


def test_std_of_mean_shrinks_with_repeats():
    def std_of_mean(repeats):
        spec = small_spec(
            methods=("displaced",), grid=(100.0,), n_shots=5_000, repeats=repeats
        )
        row = sweep_displacement(spec).rows[0]
        return row.std_infidelity / math.sqrt(repeats)

    assert std_of_mean(16) < 0.8 * std_of_mean(4)


# -- gain sweep ------------------------------------------------------------------

def test_gain_sweep_params_fix_fold_distance():
    base = ChainParams()
    for gain in (1.0, 4.0, 7.0):
        displaced = _gain_sweep_params(base, gain)
        assert displaced.gain == gain
        assert fold_displacement(displaced) == pytest.approx(GAIN_SWEEP_FOLD_D, rel=1e-12)


def test_gain_sweep_runs_and_summarizes():
    spec = small_spec(experiment="gain", param="gain", grid=(2.0, 4.0))
    result = sweep_gain(spec)
    assert len(result.rows) == 4
    assert set(result.summary["saturation_gain"]) == {"standard", "displaced"}
    assert set(result.summary["saturated_infidelity"]) == {"standard", "displaced"}


def test_saturation_gain_hand_case():
    rows = [
        SweepRow(1.0, "m", 10.0, 0.0),
        SweepRow(2.0, "m", 3.0, 0.0),
        SweepRow(3.0, "m", 1.4, 0.0),
        SweepRow(4.0, "m", 1.0, 0.0),
    ]
    assert saturation_gain(rows, "m") == 3.0


# -- robustness ------------------------------------------------------------------

@pytest.mark.parametrize("sweep,param", [(sweep_displacement, "gain"),
                                         (sweep_gain, "output_noise"),
                                         (sweep_gain, "displacement")])
def test_grid_sweeps_refuse_a_foreign_param_before_drawing(monkeypatch, sweep, param):
    # Each grid sweep names its own axis in its summary, so a spec that
    # sweeps another field is refused, not reported under the wrong name.
    calls = _count_source_draws(monkeypatch)
    with pytest.raises(ConfigError, match=f"^param: must be '.+', got '{param}'") as info:
        sweep(small_spec(methods=("displaced",), param=param, grid=(1.0, 2.0), repeats=1))
    assert info.value.field == "param"
    assert calls == []


def test_robustness_rejects_unknown_parameter():
    spec = small_spec(experiment="robustness", param="bin_width", grid=(0.1, 1.0))
    with pytest.raises(ValueError):
        robustness_sweep(spec)


def test_robustness_sweep_structure():
    spec = small_spec(
        experiment="robustness",
        param="output_noise",
        grid=(0.3, 3.0, 300.0),
        methods=("displaced",),
        params=ChainParams(displacement=100.0),
    )
    result = robustness_sweep(spec)
    assert len(result.rows) == 3
    assert "displaced" in result.summary["knee"]
    assert "displaced" in result.summary["monotone_increasing"]
    means = [r.mean_infidelity for r in result.rows]
    assert means[2] > means[0]  # extreme output noise must hurt


# -- the engine -------------------------------------------------------------------

TWO_CHUNKS = BATCH_CHUNK + 500


def _count_source_draws(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = SourceState.sample_xp

    def counting(self, n, rng):
        calls.append(n)
        return real(self, n, rng)

    monkeypatch.setattr(SourceState, "sample_xp", counting)
    return calls


@pytest.mark.parametrize("sweep,overrides", [
    pytest.param(sweep_displacement, dict(grid=(50.0,), methods=("displaced",)), id="one-point"),
    pytest.param(sweep_displacement, dict(grid=(10.0, 100.0, 1000.0)), id="displacement"),
    pytest.param(robustness_sweep, dict(experiment="robustness", grid=(50.0, 100.0, 200.0)),
                 id="robustness"),
    pytest.param(homodyne_comparison,
                 dict(experiment="homodyne_gain", param="gain", grid=(2.0, 4.0)),
                 id="homodyne-gain"),
    # Both incoupling variants of the squeezing table read the same draws.
    pytest.param(squeezing_table, dict(experiment="squeezing", param="m", grid=(3.0,),
                                       params=ChainParams(displacement=100.0)), id="squeezing"),
])
def test_sweep_samples_each_repeat_chunk_once(monkeypatch, sweep, overrides):
    # However many grid points, methods and detector kinds a sweep scores,
    # the source is sampled once per (repeat seed, chunk).
    calls = _count_source_draws(monkeypatch)
    spec = small_spec(**{"n_shots": TWO_CHUNKS, **overrides})
    sweep(spec)
    assert calls == [BATCH_CHUNK, 500] * spec.repeats


def test_unknown_method_raises_before_anything_is_drawn(monkeypatch):
    calls = _count_source_draws(monkeypatch)
    with pytest.raises(ValueError, match="methods: double reads 2 batches per point; sweeps "
                                         "score one-batch methods only"):
        sweep_displacement(small_spec(methods=("displaced", "double")))
    # A known method that cannot read its detector is refused just as early.
    with pytest.raises(ConfigError, match="methods: standard cannot read the homodyne"):
        sweep_gain(small_spec(experiment="gain", param="gain", grid=(2.0,),
                              params=ChainParams(detector=HomodyneDetector())))
    # The squeezing table distills displaced-estimator histograms, so it
    # refuses a homodyne detector before drawing too.
    with pytest.raises(ConfigError, match="detector: displaced cannot read the homodyne"):
        squeezing_table(small_spec(
            experiment="squeezing", param="m", methods=("displaced",), grid=(3.0,),
            params=ChainParams(displacement=100.0, detector=HomodyneDetector())))
    assert calls == []


@pytest.mark.parametrize("method", experiments.SWEEP_METHODS)
def test_engine_binds_every_sweep_estimator(method):
    # The engine calls each estimator by its METHODS name through its own
    # bindings, so a missing import would fail only when a sweep runs.
    name = METHODS[method][2]
    assert getattr(experiments, name) is getattr(reconstruct, name)


def test_engine_positivity_agrees_with_check_positivity():
    # The engine records the near-zero fraction and positivity_ok without
    # refusing; check_positivity refuses the same draws exactly where
    # positivity_ok is False.
    spec = small_spec(methods=("displaced",), grid=(10.0, 31.6, 100.0), n_shots=20_000,
                      repeats=1)
    seed = experiments._repeat_seeds(spec)[0]
    verdicts = []
    for row in sweep_displacement(spec).rows:
        params = replace(spec.params, displacement=row.param_value)
        batch = run_batch(preset(spec.state), params, spec.n_shots, seed)
        assert row.aux["near_zero_fraction"] == near_zero_fraction(batch)
        try:
            check_positivity(batch, near_zero_fraction(batch))
            accepted = True
        except PositivityViolation as exc:
            assert exc.fraction == row.aux["near_zero_fraction"]
            accepted = False
        verdicts.append((row.aux["positivity_ok"], accepted))
    assert verdicts == [(False, False), (False, False), (True, True)]


def test_engine_histograms_equal_the_estimators_on_run_batch():
    # One shared draw per chunk, applied at every pair and summed over
    # chunks, gives bit for bit what each estimator makes of the whole batch.
    state, n, seed = preset("sq"), 2 * BATCH_CHUNK + 300, 11
    homodyne = HomodyneDetector(efficiency=0.5, electronic_noise=0.1)
    pairs = [
        (ChainParams(), "standard"),
        (ChainParams(displacement=20.0), "displaced"),
        (ChainParams(displacement=10.0, detector=homodyne), "homodyne"),
    ]
    result = experiments._seed_histograms(state, pairs, 0.05, n, seed)
    for params, method in pairs:
        hist, near_zero = result[params, method]
        batch = run_batch(state, params, n, seed)
        ref = getattr(reconstruct, METHODS[method][2])(batch, 0.05)
        assert np.array_equal(hist.counts, ref.counts)
        assert (hist.n_total, hist.overflow) == (ref.n_total, ref.overflow)
        if method == "displaced":
            assert near_zero > 0
            assert near_zero / n == near_zero_fraction(batch)
        else:
            assert near_zero == 0


# -- homodyne comparison ------------------------------------------------------------

def test_homodyne_comparison_rejects_unknown_parameter():
    with pytest.raises(ConfigError) as info:
        homodyne_comparison(small_spec(param="output_noise"))
    assert info.value.field == "param"


def test_homodyne_d_standard_rows_equal_the_displacement_sweeps():
    # homodyne-d runs every listed method; its standard rows are the
    # displacement sweep's flat d = 0 reference, bit for bit.
    spec = small_spec(n_shots=TWO_CHUNKS)
    homodyne = homodyne_comparison(replace(spec, experiment="homodyne_d")).rows
    displacement = sweep_displacement(spec).rows
    assert [r for r in homodyne if r.method != "homodyne"] == displacement


def test_homodyne_displacement_mode_structure():
    spec = small_spec(
        experiment="homodyne_d",
        methods=("displaced",),
        grid=(10.0, 100.0),
        n_shots=2_000,
    )
    result = homodyne_comparison(spec)
    methods = {r.method for r in result.rows}
    assert methods == {"homodyne", "displaced"}
    for key in ("homodyne_level", "homodyne_variation", "flat_within_band",
                "displaced_plateau_level"):
        assert key in result.summary


@pytest.mark.parametrize("grid", [(10.0, 100.0, 1000.0), (10.0, 30.0, 100.0, 1000.0)],
                         ids=["odd", "even"])
def test_repeat_std_band_is_twice_the_statistics_median(monkeypatch, grid):
    # The band's median is written out with statistics.median's formula, so
    # it keeps the bytes statistics.median gives, for an odd or an even
    # number of homodyne rows.  The homodyne stds agree bit for bit across a
    # displacement grid, so each point's std is replaced by a distinct,
    # irregular one; under seed 91 the even grid's two middle ones average
    # to another float than the interpolation a + (b - a) * 0.5 gives.
    real = experiments._mean_std
    drawn = iter(np.random.default_rng(91).uniform(1e-4, 1e-2, 2 * len(grid)))
    monkeypatch.setattr(experiments, "_mean_std",
                        lambda values: (real(values)[0], float(next(drawn))))
    spec = small_spec(experiment="homodyne_d", methods=("displaced",), grid=grid)
    result = homodyne_comparison(spec)
    stds = [r.std_infidelity for r in result.rows if r.method == "homodyne"]
    assert len(stds) == len(grid) and len(set(stds)) == len(grid)
    assert result.summary["repeat_std_band"].hex() == (2 * statistics.median(stds)).hex()
    if len(grid) % 2 == 0:
        a, b = sorted(stds)[len(grid) // 2 - 1:len(grid) // 2 + 1]
        assert (a + b) / 2 != a + (b - a) * 0.5


def test_homodyne_gain_mode_structure():
    spec = small_spec(
        experiment="homodyne_gain",
        param="gain",
        methods=("standard",),
        grid=(4.0,),
        n_shots=1_000,
    )
    result = homodyne_comparison(spec)
    methods = {r.method for r in result.rows}
    assert "standard" in methods
    assert {m for m in methods if m.startswith("homodyne@eta=")} == {
        "homodyne@eta=1", "homodyne@eta=0.9", "homodyne@eta=0.5", "homodyne@eta=0.1"
    }


# -- squeezing table ------------------------------------------------------------

def test_squeezing_table_requires_displacement():
    spec = small_spec(experiment="squeezing", param="m", grid=(3.0,))
    with pytest.raises(ConfigError) as info:
        squeezing_table(spec)
    assert info.value.field == "displacement"


def test_squeezing_table_analytic_row_and_summary():
    spec = small_spec(
        experiment="squeezing",
        param="m",
        methods=("displaced",),
        grid=(3.0,),
        params=ChainParams(displacement=100.0),
        n_shots=3_000,
        repeats=2,
    )
    result = squeezing_table(spec)
    analytic = [r for r in result.rows if r.method == "analytic"]
    assert len(analytic) == 1
    assert analytic[0].mean_infidelity == pytest.approx(0.01723133459416234, rel=1e-12)
    table = result.summary["v_d"][3]
    assert set(table) == {"alpha_in=0.95", "alpha_in=1", "analytic"}
    mc = [r for r in result.rows if r.method == "alpha_in=1"]
    assert mc and (math.isnan(mc[0].mean_infidelity) or mc[0].mean_infidelity > 0.0)


def _squeezing_spec_with_failing_fit(monkeypatch, error):
    """A small squeezing spec whose Monte Carlo fits raise ``error``; the
    analytic reference still gets the real fit."""
    real_fit = experiments.fit_parabola

    def fit(hist, center_bin, m):
        if isinstance(hist, QuadratureHistogram):
            raise error
        return real_fit(hist, center_bin, m)

    monkeypatch.setattr(experiments, "fit_parabola", fit)
    return small_spec(
        experiment="squeezing", param="m", methods=("displaced",), grid=(3.0,),
        params=ChainParams(displacement=100.0), n_shots=3_000, repeats=2,
    )


def test_squeezing_table_counts_distill_errors_as_fit_failures(monkeypatch):
    spec = _squeezing_spec_with_failing_fit(monkeypatch, NotConcave("flat peak"))
    result = squeezing_table(spec)
    mc = [r for r in result.rows if r.method.startswith("alpha_in=")]
    assert mc and all(r.aux["fit_failures"] == spec.repeats for r in mc)
    assert all(math.isnan(r.mean_infidelity) for r in mc)


def test_squeezing_table_propagates_other_fit_errors(monkeypatch):
    spec = _squeezing_spec_with_failing_fit(monkeypatch, RuntimeError("not a fit failure"))
    with pytest.raises(RuntimeError, match="not a fit failure"):
        squeezing_table(spec)
