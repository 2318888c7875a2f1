"""Command-line interface.

Commands: ``simulate``, ``reconstruct``, ``sweep``, ``squeeze``,
``presets``.  All randomness flows from ``--seed`` through the package's
stream-derivation scheme, so identical invocations write identical files.

Exit codes: 0 success; 2 configuration or precondition error (the message
names the offending field); 3 positivity violation (the single-displacement
estimator refused the batch — supply a second displaced batch and use the
two-displacement method).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
# argparse's gettext loads locale on its first message; load it with the CLI.
import locale  # noqa: F401
import os
import sys

import numpy as np

from .chain import (
    ChainParams,
    ConfigError,
    HomodyneDetector,
    ShotBatch,
    run_batch,
)
from .experiments import (
    DEFAULT_DISPLACEMENT_GRID,
    DEFAULT_GAIN_GRID,
    GAIN_SWEEP_FOLD_D,
    SQUEEZING_TABLE_M,
    SweepSpec,
    homodyne_comparison,
    robustness_sweep,
    squeezing_table,
    sweep_displacement,
    sweep_gain,
    validate_scale,
)
from .hist import fidelity
from .reconstruct import (
    METHODS,
    PositivityViolation,
    displaced_reconstruct,
    double_displacement_reconstruct,
    homodyne_reconstruct,
    standard_reconstruct,
)
from .states import PRESETS, preset

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3


@dataclasses.dataclass
class RunConfig:
    """One simulation/reconstruction run: state, chain, method, scale.

    Defaults are the reference parameter set the experiments are quoted
    at: G=4 with 0.01 jitter, incoupling 0.99 with matching 0.01 noise,
    outcoupling 0.1 with 1e-3 jitter, post-amplification noise 3, bins of
    0.05, and 1e5 shots.
    """

    state: str = "sq"
    method: str = "displaced"
    detector: str = "intensity"
    n_shots: int = 100_000
    bin_width: float = 0.05
    seed: int = 0
    out_dir: str = "runs"
    params: ChainParams = dataclasses.field(default_factory=ChainParams)

    def validate(self) -> None:
        if self.state not in PRESETS:
            raise ConfigError("state", f"unknown preset {self.state!r}; see `opatomo presets`")
        if self.method not in METHODS:
            raise ConfigError("method", f"unknown method {self.method!r}")
        if self.detector not in ("intensity", "homodyne"):
            raise ConfigError("detector", f"unknown detector {self.detector!r}")
        validate_scale(self.n_shots, self.seed, self.bin_width)
        self.params.validate()

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)


def _field_casters(cls, skip: tuple[str, ...] = ()) -> dict:
    """Config key -> caster for each field of ``cls`` that has a plain
    default; the caster is the default's type."""
    return {
        f.name: type(f.default)
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING and f.name not in skip
    }


_CHAIN_FIELDS = _field_casters(ChainParams)
_DETECTOR_FIELDS = _field_casters(HomodyneDetector, skip=("kind",))
_RUN_FIELDS = _field_casters(RunConfig)
_SETTINGS = {**_RUN_FIELDS, **_CHAIN_FIELDS, **_DETECTOR_FIELDS}
# Settings that also have a flag of their own.
_FLAGS = (*_RUN_FIELDS, *_CHAIN_FIELDS)

# Each command's settings that it never reads, key -> why; build_config
# refuses them from every source.  Sweep kinds add theirs in _SWEEP_KINDS.
_HEADER_KEYS = ("state", "detector", "n_shots", "seed", *_CHAIN_FIELDS, *_DETECTOR_FIELDS)
_RECONSTRUCT_REFUSES = dict.fromkeys(
    _HEADER_KEYS, "is fixed by the batch header; reconstruct does not take it")
_SIMULATE_REFUSES = dict.fromkeys(
    ("method", "bin_width"), "simulate writes outcomes and does not reconstruct")
_SWEEP_REFUSES = {"method": "sweeps take --methods"}
_SQUEEZE_REFUSES = {
    "method": "squeeze runs the displaced estimator only",
    **dict.fromkeys(("input_transmittance", "input_noise"),
                    "squeeze sets the incoupling for each variant"),
    **dict.fromkeys(("detector", *_DETECTOR_FIELDS),
                    "squeeze counts photons with the intensity detector only"),
}


def build_config(args: argparse.Namespace, refused: dict[str, str],
                 defaults: dict | None = None) -> RunConfig:
    """The validated run settings of a command line.

    The command's own ``defaults`` come first, then ``--config`` lines, then
    ``--set`` items, then flags; a later source overrides an earlier one.
    Every setting, from any source, is refused with its reason if its key is
    in ``refused``, and otherwise cast by its field's caster.
    Homodyne detector fields imply ``detector=homodyne``; with
    ``detector=intensity`` they are an error.
    """
    lines = []
    if args.config:
        with open(args.config) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if line:
                    lines.append((line, f"{args.config}:{lineno}"))
    lines += [(item, item) for item in args.set or []]
    items = list((defaults or {}).items())
    for line, where in lines:
        if "=" not in line:
            raise ConfigError(where, "expected key=value")
        items.append(tuple(part.strip() for part in line.split("=", 1)))
    items += [(key, getattr(args, key)) for key in _FLAGS if getattr(args, key) is not None]

    given = {}
    for key, raw in items:
        if key in refused:
            raise ConfigError(key, refused[key])
        if key not in _SETTINGS:
            raise ConfigError(key, "unknown configuration key")
        try:
            given[key] = _SETTINGS[key](raw)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None

    homodyne = {key: given.pop(key) for key in _DETECTOR_FIELDS if key in given}
    chain = {key: given.pop(key) for key in _CHAIN_FIELDS if key in given}
    given.setdefault("detector", "homodyne" if homodyne else "intensity")
    if given["detector"] == "homodyne":
        chain["detector"] = HomodyneDetector(**homodyne)
    elif homodyne:
        raise ConfigError(next(iter(homodyne)),
                          f"is a homodyne setting, but detector={given['detector']}")
    config = RunConfig(**given, params=ChainParams(**chain))
    config.validate()
    return config


def _stem(config: RunConfig) -> str:
    return f"batch_{config.state}_{config.seed}"


def cmd_simulate(args: argparse.Namespace) -> int:
    config = build_config(args, _SIMULATE_REFUSES)
    batch = run_batch(preset(config.state), config.params, config.n_shots, config.seed)
    os.makedirs(config.out_dir, exist_ok=True)
    stem = os.path.join(config.out_dir, _stem(config))
    batch.to_csv(stem + ".csv")
    with open(stem + ".json", "w") as fh:
        fh.write(config.to_json() + "\n")
    print(stem + ".csv")
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    config = build_config(args, _RECONSTRUCT_REFUSES)
    paths = [args.batch, args.batch2] if args.batch2 else [args.batch]
    count = METHODS[config.method][1]
    if len(paths) != count:
        raise ConfigError("batch2", f"{config.method} reads {count} batch(es), not {len(paths)}")
    batches = [ShotBatch.from_csv(path) for path in paths]
    batch = batches[0]
    if batch.state_label not in PRESETS:
        raise ConfigError("state", f"batch header names unknown preset {batch.state_label!r}; "
                                   "see `opatomo presets`")
    state = preset(batch.state_label)

    diag: dict = {}
    if config.method == "double":
        estimate, diag = double_displacement_reconstruct(*batches, config.bin_width)
    elif config.method == "standard":
        estimate = standard_reconstruct(batch, config.bin_width)
    elif config.method == "displaced":
        estimate = displaced_reconstruct(batch, config.bin_width)
    else:
        estimate = homodyne_reconstruct(batch, config.bin_width)
    f = fidelity(estimate, state)

    os.makedirs(config.out_dir, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.batch))[0]
    stem = os.path.join(config.out_dir, f"recon_{config.method}_{base}")
    estimate.to_csv(stem + ".csv")
    report = {
        "method": config.method,
        "N": sum(b.n_shots for b in batches),
        "state": batch.state_label,
        "fidelity": f,
        "infidelity": 1.0 - f,
    }
    report.update({f"diag_{k}": v for k, v in diag.items()})
    with open(stem + ".json", "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _parse_grid(text: str | None, default: tuple[float, ...], key: str) -> tuple[float, ...]:
    """The comma-separated values of flag ``key``; ``default`` when not given."""
    if not text:
        return default
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


_FOLD_D = f"gain sweeps hold it at {GAIN_SWEEP_FOLD_D:g} input-quadrature units"

# Sweep kind -> (sweep function name, swept field, default grid, refused
# settings besides the swept field); robustness sweeps take the field and grid
# from --param and --grid.  The function is looked up by name when the command
# runs, so a wrapper put on this module's binding (a profiler, say) sees the
# call.
_SWEEP_KINDS = {
    "displacement": ("sweep_displacement", "displacement", DEFAULT_DISPLACEMENT_GRID, {}),
    "gain": ("sweep_gain", "gain", DEFAULT_GAIN_GRID, {"displacement": _FOLD_D}),
    "robustness": ("robustness_sweep", None, (), {}),
    "homodyne-d": ("homodyne_comparison", "displacement", DEFAULT_DISPLACEMENT_GRID, {}),
    "homodyne-gain": ("homodyne_comparison", "gain", DEFAULT_GAIN_GRID, {
        "displacement": _FOLD_D,
        **dict.fromkeys(("detector", *_DETECTOR_FIELDS),
                        "the homodyne-gain sweep sets each curve's detector"),
    }),
}


def _run_sweep(run, config: RunConfig, repeats: int, experiment: str,
               methods: tuple[str, ...], param: str, grid: tuple[float, ...]) -> int:
    """Run one sweep at the config's state, chain and scale; write its files."""
    spec = SweepSpec(
        experiment, config.state, methods, param, grid, params=config.params,
        bin_width=config.bin_width, n_shots=config.n_shots,
        repeats=repeats, seed=config.seed,
    )
    result = run(spec)
    csv_path, _ = result.to_csv(config.out_dir)
    print(json.dumps({"csv": csv_path, "summary": result.summary}, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    name, param, default, refused = _SWEEP_KINDS[args.kind]
    if param is None:
        if not args.param or not args.grid:
            raise ConfigError("param/grid", "robustness sweeps need --param and --grid")
        param = args.param
    config = build_config(args, {param: f"the {args.kind} sweep sets it at every point",
                                 **_SWEEP_REFUSES, **refused})
    methods = tuple((args.methods or "standard,displaced").split(","))
    return _run_sweep(globals()[name], config, args.repeats, args.kind.replace("-", "_"),
                      methods, param, _parse_grid(args.grid, default, "grid"))


def cmd_squeeze(args: argparse.Namespace) -> int:
    config = build_config(args, _SQUEEZE_REFUSES, {"displacement": 100.0})
    m_grid = _parse_grid(args.m, tuple(float(m) for m in SQUEEZING_TABLE_M), "m")
    return _run_sweep(squeezing_table, config, args.repeats, "squeezing", ("displaced",), "m",
                      m_grid)


def cmd_presets(_args: argparse.Namespace) -> int:
    for name in PRESETS:
        description = PRESETS[name][0]
        print(f"{name:10s} {description}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="config assignment (repeatable; overrides --config)")
    for name in _FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opatomo",
        description="Monte Carlo tomography of optical quadrature distributions "
        "through a phase-sensitive amplifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a measurement batch and write outcomes")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="estimate a quadrature histogram from batches")
    _add_common(p)
    p.add_argument("--batch", required=True, help="outcome CSV from `simulate`")
    p.add_argument("--batch2", help="second batch (two-displacement method)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep", help="run a parameter sweep experiment")
    _add_common(p)
    p.add_argument("--kind", required=True, choices=tuple(_SWEEP_KINDS))
    p.add_argument("--param", help="swept chain field (robustness sweeps)")
    p.add_argument("--grid", help="comma-separated grid values")
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--repeats", type=int, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("squeeze", help="distillable-squeezing table")
    _add_common(p)
    p.add_argument("--m", help="comma-separated fit sizes (odd)")
    p.add_argument("--repeats", type=int, default=8)
    p.set_defaults(func=cmd_squeeze)

    p = sub.add_parser("presets", help="list source-state presets")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Floating-point overflow and invalid operations stop the command
        # instead of printing a warning and carrying inf or NaN onward.
        with np.errstate(all="raise", under="ignore"):
            return args.func(args)
    except PositivityViolation as exc:
        print(
            f"error: {exc} (hint: take a second batch at a different "
            "displacement and use --method double)",
            file=sys.stderr,
        )
        return EXIT_POSITIVITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"error: {exc} (the inputs leave the floating-point range)", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
