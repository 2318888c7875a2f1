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
    SQUEEZING_TABLE_M,
    SweepSpec,
    homodyne_comparison,
    robustness_sweep,
    squeezing_table,
    sweep_displacement,
    sweep_gain,
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
        if self.n_shots < 1:
            raise ConfigError("n_shots", "must be at least 1")
        if self.bin_width <= 0:
            raise ConfigError("bin_width", "must be positive")
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

# Keys a batch header fixes; reconstruct refuses them from every source.
_HEADER_KEYS = ("state", "detector", "n_shots", "seed", *_CHAIN_FIELDS, *_DETECTOR_FIELDS)


def build_config(args: argparse.Namespace, refused: tuple[str, ...] = ()) -> RunConfig:
    """The validated run settings of a command line.

    ``--config`` lines come first, then ``--set`` items, then flags; a later
    source overrides an earlier one.  Every setting, from any source, is
    refused if its key is in ``refused`` and cast by its field's caster.
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
    items = []
    for line, where in lines:
        if "=" not in line:
            raise ConfigError(where, "expected key=value")
        items.append(tuple(part.strip() for part in line.split("=", 1)))
    items += [(key, getattr(args, key)) for key in _FLAGS if getattr(args, key) is not None]

    given = {}
    for key, raw in items:
        if key in refused:
            raise ConfigError(key, "is fixed by the batch header; reconstruct does not take it")
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
    config = build_config(args)
    batch = run_batch(preset(config.state), config.params, config.n_shots, config.seed)
    os.makedirs(config.out_dir, exist_ok=True)
    stem = os.path.join(config.out_dir, _stem(config))
    batch.to_csv(stem + ".csv")
    with open(stem + ".json", "w") as fh:
        fh.write(config.to_json() + "\n")
    print(stem + ".csv")
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    config = build_config(args, _HEADER_KEYS)
    batch = ShotBatch.from_csv(args.batch)
    if batch.state_label not in PRESETS:
        raise ConfigError(
            "state",
            f"batch header names unknown preset {batch.state_label!r}; see `opatomo presets`",
        )
    state = preset(batch.state_label)

    if config.method == "double":
        if not args.batch2:
            raise ConfigError("batch2", "the two-displacement method needs two batches")
        batch2 = ShotBatch.from_csv(args.batch2)
        estimate, diag = double_displacement_reconstruct(batch, batch2, config.bin_width)
        f = fidelity(estimate, state)
        n = batch.n_shots + batch2.n_shots
    else:
        if config.method == "standard":
            hist = standard_reconstruct(batch, config.bin_width)
        elif config.method == "displaced":
            hist = displaced_reconstruct(batch, config.bin_width)
        else:
            hist = homodyne_reconstruct(batch, config.bin_width)
        estimate, diag = hist, {}
        f = fidelity(hist, state)
        n = batch.n_shots

    os.makedirs(config.out_dir, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.batch))[0]
    stem = os.path.join(config.out_dir, f"recon_{config.method}_{base}")
    estimate.to_csv(stem + ".csv")
    report = {
        "method": config.method,
        "N": n,
        "state": batch.state_label,
        "fidelity": f,
        "infidelity": 1.0 - f,
    }
    report.update({f"diag_{k}": v for k, v in diag.items()})
    with open(stem + ".json", "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _parse_grid(text: str | None, default: tuple[float, ...]) -> tuple[float, ...]:
    if not text:
        return default
    return tuple(float(part) for part in text.split(","))


# Sweep kind -> (sweep function name, swept field, default grid); robustness
# sweeps take both from --param and --grid.  The function is looked up by name
# when the command runs, so a wrapper put on this module's binding (a
# profiler, say) sees the call.
_SWEEP_KINDS = {
    "displacement": ("sweep_displacement", "displacement", DEFAULT_DISPLACEMENT_GRID),
    "gain": ("sweep_gain", "gain", DEFAULT_GAIN_GRID),
    "robustness": ("robustness_sweep", None, ()),
    "homodyne-d": ("homodyne_comparison", "displacement", DEFAULT_DISPLACEMENT_GRID),
    "homodyne-gain": ("homodyne_comparison", "gain", DEFAULT_GAIN_GRID),
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
    config = build_config(args)
    name, param, default = _SWEEP_KINDS[args.kind]
    if param is None:
        if not args.param or not args.grid:
            raise ConfigError("param/grid", "robustness sweeps need --param and --grid")
        param = args.param
    methods = tuple((args.methods or "standard,displaced").split(","))
    return _run_sweep(globals()[name], config, args.repeats, args.kind.replace("-", "_"),
                      methods, param, _parse_grid(args.grid, default))


def cmd_squeeze(args: argparse.Namespace) -> int:
    config = build_config(args)
    if config.params.displacement == 0.0:
        config.params = dataclasses.replace(config.params, displacement=100.0)
    m_grid = _parse_grid(args.m, tuple(float(m) for m in SQUEEZING_TABLE_M))
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"error: {exc} (the inputs leave the floating-point range)", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
