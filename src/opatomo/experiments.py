"""Seeded, reproducible parameter-sweep experiments.

Every sweep is a pure function of a ``SweepSpec``: the master seed derives
one sub-seed per repeat, and those repeat seeds are shared across grid
points and estimation methods, so method comparisons are paired rather
than independent; a (chain setting, method) pair that recurs in a sweep is
evaluated once.  Each sweep hands one engine, ``_sweep``, the chain setting
of a grid value (and any homodyne curves); the engine builds the points.
Results serialize to one CSV plus one JSON summary, named
``<experiment>_<state>_<hash>``, where the hash digests the spec.

Swept displacement and gain values refer to the chain's displacement d
(amplified-quadrature units) and gain exponent G.  Gain sweeps keep the
displacement fixed in *input-quadrature* units (``GAIN_SWEEP_FOLD_D``), so
changing G does not silently change where the state sits relative to the
fold point.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .chain import (
    ChainParams,
    ConfigError,
    HomodyneDetector,
    IntensityDetector,
    ShotBatch,
    apply_chunk,
    chunk_sizes,
    draw_chunk,
    run_batch,  # noqa: F401  (uncalled; bench/tracer.py wraps this binding)
    write_output,
)
from .distill import (
    DistillError,
    OutOfRange,
    distillable_variance,
    fit_parabola,
    loss_corrected_variance,
    select_peak,
)
from .hist import analytic_point_density, fidelity, grid_bins
# The estimators are called by their METHODS name through these bindings.
from .reconstruct import (  # noqa: F401
    GRID_HALF_WIDTH,
    METHODS,
    POSITIVITY_THRESHOLD,
    check_method,
    displaced_reconstruct,
    homodyne_reconstruct,
    near_zero_fraction,
    standard_reconstruct,
)
from .states import preset
from .streams import derive_seed

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "sweep_displacement",
    "sweep_gain",
    "robustness_sweep",
    "homodyne_comparison",
    "squeezing_table",
    "DEFAULT_DISPLACEMENT_GRID",
    "DEFAULT_GAIN_GRID",
    "GAIN_SWEEP_FOLD_D",
]

# Default grids mirror the figure ranges: displacement log-spaced over four
# decades, gain linear from 1 to 7.
DEFAULT_DISPLACEMENT_GRID = tuple(float(v) for v in np.logspace(0.0, 4.0, 25))
DEFAULT_GAIN_GRID = tuple(float(v) for v in np.linspace(1.0, 7.0, 25))

# Displacement held fixed in input-quadrature units during gain sweeps.
GAIN_SWEEP_FOLD_D = 2.0

# A method saturates at the smallest grid value whose mean infidelity is
# within this factor of the value at the end of the grid.
SATURATION_FACTOR = 1.5

# Robustness knee: smallest swept value whose mean infidelity exceeds this
# multiple of the sweep's minimum.
KNEE_FACTOR = 2.0

# Methods a sweep point can score: those that read one batch per point.
SWEEP_METHODS = tuple(method for method, (_, batches, _) in METHODS.items() if batches == 1)

_ROBUSTNESS_FIELDS = (
    "input_noise",
    "output_noise",
    "gain_jitter",
    "output_transmittance_jitter",
    "output_transmittance",
    "displacement",
)


def validate_scale(n_shots: int, seed: int, bin_width: float) -> None:
    """Refuse a shot count, master seed or bin width that no run can use."""
    if n_shots < 1:
        raise ConfigError("n_shots", "must be at least 1")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", f"must be in [0, 2**64) (got {seed!r})")
    if not 0.0 < bin_width < math.inf:
        raise ConfigError("bin_width", f"must be positive and finite (got {bin_width!r})")


@dataclass
class SweepSpec:
    """Complete, hashable description of one sweep."""

    experiment: str
    state: str
    methods: tuple[str, ...]
    param: str
    grid: tuple[float, ...]
    params: ChainParams = field(default_factory=ChainParams)
    bin_width: float = 0.05
    n_shots: int = 100_000
    repeats: int = 8
    seed: int = 0

    def validate(self) -> None:
        if not self.grid:
            raise ConfigError("grid", "must be non-empty")
        if sorted(set(self.grid)) != list(self.grid):
            raise ConfigError("grid", f"must be strictly ascending (got {list(self.grid)!r})")
        if self.repeats < 1:
            raise ConfigError("repeats", "must be at least 1")
        validate_scale(self.n_shots, self.seed, self.bin_width)
        try:  # every sweep estimator's grid spans 2 * GRID_HALF_WIDTH
            grid_bins(self.bin_width, -GRID_HALF_WIDTH, GRID_HALF_WIDTH)
        except ValueError as exc:
            raise ConfigError("bin_width", str(exc)) from None
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError("methods", f"unknown method {method!r}")
            if method not in SWEEP_METHODS:
                raise ConfigError("methods", f"{method} reads {METHODS[method][1]} batches per "
                                             "point; sweeps score one-batch methods only")
            if self.methods.count(method) > 1:
                raise ConfigError("methods", f"{method!r} is listed twice")
        preset(self.state)

    def canonical_json(self) -> str:
        payload = asdict(self)
        payload["grid"] = [repr(float(v)) for v in self.grid]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        return hashlib.sha1(self.canonical_json().encode()).hexdigest()[:8]

    def file_stem(self) -> str:
        return f"{self.experiment}_{self.state}_{self.spec_hash()}"


@dataclass
class SweepRow:
    param_value: float
    method: str
    mean_infidelity: float
    std_infidelity: float
    aux: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow]
    summary: dict

    def to_csv(self, out_dir: str) -> tuple[str, str]:
        """Write ``<stem>.csv`` and ``<stem>.json``; returns both paths.

        Floats are rendered with repr so re-running the same spec yields
        byte-identical files.
        """
        stem = self.spec.file_stem()
        csv_path = os.path.join(out_dir, stem + ".csv")
        json_path = os.path.join(out_dir, stem + ".json")
        lines = ["param_value,method,mean_infidelity,std_infidelity,aux_json"]
        for row in self.rows:
            aux = json.dumps(row.aux, sort_keys=True, separators=(",", ":"))
            lines.append(
                f"{row.param_value!r},{row.method},{row.mean_infidelity!r},"
                f'{row.std_infidelity!r},"{aux.replace(chr(34), chr(34) * 2)}"'
            )
        write_output(csv_path, [("\n".join(lines) + "\n").encode()])
        report = {"spec": json.loads(self.spec.canonical_json()), "summary": self.summary}
        write_output(json_path, [(json.dumps(report, sort_keys=True, indent=2) + "\n").encode()])
        return csv_path, json_path


def _repeat_seeds(spec: SweepSpec) -> list[int]:
    return [derive_seed(spec.seed, r) for r in range(spec.repeats)]


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _seed_histograms(state, pairs: list, bin_width: float, n_shots: int, seed: int) -> dict:
    """``(params, method) -> (histogram, near-zero count)`` over one repeat
    seed's batch, for every pair.

    Each chunk's source and chain draws are made once and applied at every
    pair, and the chain terms that pairs share are computed once per chunk
    (``apply_chunk``'s cache, whose intensity gain terms are built in place).
    The previous chunk's draws and terms are freed before the next chunk is
    drawn, so only one chunk's draws and terms are held at a time; each
    pair's last batch and histogram stay bound until the next chunk's pass
    rebinds them.  Pairs are tallied by position: each pair keeps one running
    histogram, to which every chunk's histogram is added, and the per-chunk
    near-zero counts add up exactly to that of the whole batch.
    """
    hists = [None] * len(pairs)
    near_zero = [0] * len(pairs)
    for index, count in enumerate(chunk_sizes(n_shots)):
        # The last chunk's draws and terms are freed before this chunk is
        # drawn, so two chunks' draws or terms are never held at once.  Each
        # pair's batch and hist are left to be rebound: freeing them as well
        # lets the heap trim and re-fault its pages at every chunk.
        draws = None
        cache: dict = {}
        draws = draw_chunk(state, seed, index, count)
        for k, (params, method) in enumerate(pairs):
            batch = ShotBatch(apply_chunk(draws, params, cache), params, seed, state.label)
            hist = globals()[METHODS[method][2]](batch, bin_width)
            hists[k] = hist if hists[k] is None else hists[k] + hist
            if method == "displaced":
                # The fraction is count / size correctly rounded, so this
                # recovers the integer count.
                near_zero[k] += round(near_zero_fraction(batch) * count)
    return {pair: (hist, z) for pair, hist, z in zip(pairs, hists, near_zero)}


def _sweep(spec: SweepSpec, curves=()) -> list[SweepRow]:
    """One row per point; the points of grid value ``v`` run at the spec's
    chain with ``spec.param`` set to ``v`` (``_gain_sweep_params`` for a gain).

    They are, in order: every homodyne curve ``(label, detector, extra_aux)``
    on its detector, then every method of ``spec.methods``, on the intensity
    detector when the sweep has curves and on the spec's detector otherwise.
    The spec, and each method against its detector, are checked before
    anything is drawn.  The standard estimator has no displacement knob, so
    its points run at d = 0.  Every point shares the spec's repeat seeds, so
    each repeat's draws are made once and reused at every point, and a
    ``(params, method)`` pair that recurs on the grid (the standard
    estimator's d = 0 reference, say) is evaluated once.
    """
    spec.validate()
    points = []
    for value in spec.grid:
        params = (_gain_sweep_params(spec.params, float(value)) if spec.param == "gain"
                  else replace(spec.params, **{spec.param: float(value)}))
        for label, detector, extra in curves:
            points.append((value, label, replace(params, detector=detector), "homodyne", extra))
        if curves:
            params = replace(params, detector=IntensityDetector())
        for method in spec.methods:
            at_method = replace(params, displacement=0.0) if method == "standard" else params
            points.append((value, method, at_method, method, {}))
    pairs = list(dict.fromkeys((params, method) for _, _, params, method, _ in points))
    for params, method in pairs:
        check_method(method, params, key="methods")
    state = preset(spec.state)
    infs: dict = {pair: [] for pair in pairs}
    fractions: dict = {pair: [] for pair in pairs}
    for seed in _repeat_seeds(spec):
        for pair, (hist, near_zero) in _seed_histograms(
            state, pairs, spec.bin_width, spec.n_shots, seed
        ).items():
            infs[pair].append(1.0 - fidelity(hist, state))
            fractions[pair].append(near_zero / spec.n_shots)
    evaluated: dict = {}
    for pair in pairs:
        aux: dict = {}
        if pair[1] == "displaced":
            frac = float(np.mean(fractions[pair]))
            aux["near_zero_fraction"] = frac
            aux["positivity_ok"] = frac <= POSITIVITY_THRESHOLD
        evaluated[pair] = (*_mean_std(infs[pair]), aux)
    rows: list[SweepRow] = []
    for value, label, params, method, extra in points:
        mean, std, aux = evaluated[params, method]
        rows.append(SweepRow(float(value), label, mean, std, {**aux, **extra}))
    return rows


def sweep_displacement(spec: SweepSpec) -> SweepResult:
    """Infidelity as a function of the applied displacement.

    The displaced estimator runs at every grid value; the standard
    estimator has no displacement knob, so it runs at d = 0 and its
    (mean, std) row is replicated across the grid as a flat reference.
    """
    if spec.param != "displacement":
        raise ConfigError("param", f"must be 'displacement', got {spec.param!r}")
    rows = _sweep(spec)
    summary: dict = {}
    disp = [r for r in rows if r.method == "displaced"]
    if disp:
        best = min(disp, key=lambda r: r.mean_infidelity)
        level = best.mean_infidelity
        plateau = [r.param_value for r in disp if r.mean_infidelity <= SATURATION_FACTOR * level]
        summary["optimal_d"] = best.param_value
        summary["plateau_level"] = level
        summary["plateau_std"] = best.std_infidelity
        summary["plateau_lo"] = min(plateau)
        summary["plateau_hi"] = max(plateau)
    standard = [r for r in rows if r.method == "standard"]
    if standard:
        summary["standard_reference"] = standard[0].mean_infidelity
        summary["standard_reference_std"] = standard[0].std_infidelity
    return SweepResult(spec, rows, summary)


def _gain_sweep_params(base: ChainParams, gain: float) -> ChainParams:
    displacement = GAIN_SWEEP_FOLD_D * math.exp(gain) * math.sqrt(base.input_transmittance)
    return replace(base, gain=float(gain), displacement=displacement)


def saturation_gain(rows: list[SweepRow], method: str) -> float:
    """Smallest grid gain whose mean infidelity is within SATURATION_FACTOR
    of the value at the top of the grid."""
    curve = [r for r in rows if r.method == method]
    final = curve[-1].mean_infidelity
    for row in curve:
        if row.mean_infidelity <= SATURATION_FACTOR * final:
            return row.param_value
    return curve[-1].param_value


def _saturation_summary(rows: list[SweepRow]) -> dict:
    labels = dict.fromkeys(r.method for r in rows)
    return {
        "saturation_gain": {m: saturation_gain(rows, m) for m in labels},
        "saturated_infidelity": {
            m: [r for r in rows if r.method == m][-1].mean_infidelity for m in labels
        },
    }


def sweep_gain(spec: SweepSpec) -> SweepResult:
    """Infidelity as a function of the amplification exponent."""
    if spec.param != "gain":
        raise ConfigError("param", f"must be 'gain', got {spec.param!r}")
    rows = _sweep(spec)
    return SweepResult(spec, rows, _saturation_summary(rows))


def robustness_sweep(spec: SweepSpec) -> SweepResult:
    """Infidelity as one chain imperfection is swept, others at their
    defaults; reports the knee where the error leaves its floor."""
    if spec.param not in _ROBUSTNESS_FIELDS:
        raise ConfigError("param", f"must be one of {_ROBUSTNESS_FIELDS}, got {spec.param!r}")
    rows = _sweep(spec)
    summary: dict = {"knee": {}, "monotone_increasing": {}}
    for method in spec.methods:
        curve = [r for r in rows if r.method == method]
        floor = min(r.mean_infidelity for r in curve)
        knee = next(
            (r.param_value for r in curve if r.mean_infidelity > KNEE_FACTOR * floor), None
        )
        summary["knee"][method] = knee
        means = [r.mean_infidelity for r in curve]
        summary["monotone_increasing"][method] = bool(
            all(means[i] < means[i + 1] for i in range(len(means) - 1))
        )
    return SweepResult(spec, rows, summary)


def homodyne_comparison(spec: SweepSpec) -> SweepResult:
    """Homodyne detection against the photon-counting estimators.

    Two modes, selected by ``spec.param``:

    * ``"displacement"`` — homodyne infidelity across the displacement
      grid (expected flat), with the displaced estimator swept alongside
      for its optimal-plateau level.
    * ``"gain"`` — homodyne infidelity across the gain grid for detector
      efficiencies 1, 0.9, 0.5 and 0.1 (electronic noise 0.1), overlaid
      with the standard and displaced photon-counting curves.
    """
    if spec.param == "gain":
        curves = [
            (f"homodyne@eta={eta:g}", HomodyneDetector(efficiency=eta, electronic_noise=0.1),
             {"efficiency": eta})
            for eta in (1.0, 0.9, 0.5, 0.1)
        ]
        rows = _sweep(spec, curves)
        return SweepResult(spec, rows, _saturation_summary(rows))
    if spec.param != "displacement":
        raise ConfigError("param", f"must be 'displacement' or 'gain', got {spec.param!r}")

    detector = spec.params.detector
    if not isinstance(detector, HomodyneDetector):
        detector = HomodyneDetector(efficiency=0.5, electronic_noise=0.1)
    rows = _sweep(spec, [("homodyne", detector, {})])
    h_means = [r.mean_infidelity for r in rows if r.method == "homodyne"]
    # The median by statistics.median's formula (the middle value, or the mean
    # of the two middle ones), so the band keeps its bytes without importing
    # statistics, which loads decimal and fractions (~0.5 MiB); np.median
    # would load numpy.ma.
    h_stds = sorted(r.std_infidelity for r in rows if r.method == "homodyne")
    mid = len(h_stds) // 2
    band = 2.0 * (h_stds[mid] if len(h_stds) % 2 else (h_stds[mid - 1] + h_stds[mid]) / 2)
    summary = {
        "homodyne_level": float(np.mean(h_means)),
        "homodyne_variation": float(max(h_means) - min(h_means)),
        "repeat_std_band": band,
        "flat_within_band": bool(max(h_means) - min(h_means) < band),
    }
    disp = [r for r in rows if r.method == "displaced"]
    if disp:
        summary["displaced_plateau_level"] = min(r.mean_infidelity for r in disp)
    return SweepResult(spec, rows, summary)


# States and incoupling variants tabulated by the squeezing table.  The
# incoupling noise is tied to the loss (a lossless input is also noiseless).
SQUEEZING_TABLE_ALPHAS = (0.95, 1.0)
SQUEEZING_TABLE_M = (3, 5, 7, 9, 11)


def squeezing_table(spec: SweepSpec) -> SweepResult:
    """Distillable squeezing V_d for one state across fit sizes m.

    Both incoupling variants are measured on the same draws, made once per
    (repeat seed, chunk) by the sweep engine, at the spec's displacement;
    each repeat's displaced-estimator histogram is distilled at every m.
    An analytic noiseless reference is distilled per m from the exact pdf.
    ``param_value`` carries m.
    """
    m_grid = list(spec.grid)
    if sorted(set(m_grid)) != m_grid or not all(
            math.isfinite(m) and m >= 3 and m % 2 == 1 for m in m_grid):
        raise ConfigError("m", f"must be odd integers >= 3, strictly ascending (got {m_grid!r})")
    spec.validate()
    if spec.params.displacement <= 0.0:
        raise ConfigError(
            "displacement",
            "the squeezing table distills displaced-estimator histograms, so it "
            "needs a positive displacement (the optimal region is d ~ 100)",
        )
    check_method("displaced", spec.params, key="detector")
    state = preset(spec.state)
    m_values = tuple(int(m) for m in spec.grid)
    # The analytic reference is fitted first, so an m whose window leaves the
    # histogram is refused before anything is drawn; its rows go last.
    reference = analytic_point_density(state, spec.bin_width)
    analytic: list[SweepRow] = []
    for m in m_values:
        try:
            fit = fit_parabola(reference, select_peak(reference), m)
        except OutOfRange as exc:
            raise ConfigError("m", str(exc)) from None
        analytic.append(SweepRow(
            float(m), "analytic", distillable_variance(fit), 0.0,
            {"apex_location": fit.b, "state": spec.state},
        ))

    pairs = [
        (replace(spec.params, input_transmittance=alpha, input_noise=1.0 - alpha), "displaced")
        for alpha in SQUEEZING_TABLE_ALPHAS
    ]
    per_seed = [_seed_histograms(state, pairs, spec.bin_width, spec.n_shots, seed)
                for seed in _repeat_seeds(spec)]
    rows: list[SweepRow] = []
    for pair in pairs:
        alpha = pair[0].input_transmittance
        for m in m_values:
            fits: list[tuple[float, float]] = []  # (V_d, apex) of each fit that succeeds
            for hist, _ in (histograms[pair] for histograms in per_seed):
                try:
                    fit = fit_parabola(hist, select_peak(hist), m)
                    fits.append((distillable_variance(fit), fit.b))
                except DistillError:
                    pass  # counted in fit_failures
            v_raw = [v for v, _ in fits]
            v_cor = [loss_corrected_variance(v, alpha) for v in v_raw]
            mean, std = _mean_std(v_raw) if fits else (float("nan"), 0.0)
            rows.append(
                SweepRow(
                    float(m),
                    f"alpha_in={alpha:g}",
                    mean,
                    std,
                    {
                        "v_d_corrected": float(np.mean(v_cor)) if fits else None,
                        "apex_location": float(np.mean([b for _, b in fits])) if fits else None,
                        "fit_failures": spec.repeats - len(fits),
                        "state": spec.state,
                    },
                )
            )

    rows += analytic
    by_m = {
        m: {r.method: r.mean_infidelity for r in rows if r.param_value == m}
        for m in m_values
    }
    summary = {"v_d": by_m}
    return SweepResult(spec, rows, summary)
