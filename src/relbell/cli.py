"""Command line front end.

Commands: ``correlate``, ``bell``, ``scan``, ``threshold``, ``protocol``.
Vector flags take comma-separated triples (direction vectors are
normalized, with a warning when they are off by more than 1e-6); list
flags take semicolon-separated triples.  A ``--config`` file holds flat
``key = value`` lines mirroring the long flag names; explicit flags
override file values.  Relative ``--out`` paths are resolved against
``$RELBELL_OUT_DIR`` when it is set.  Flag names and config-file keys must
match exactly; prefixes are not expanded.  Parsing builds the library objects
the flags configure; their constructors do every range check, and what
they reject is a usage error.  Exit codes: 0 success, 1 usage error, 2
runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .bell import (
    BellConfig,
    DEFAULT_CONFIG,
    ScanTable,
    _check_scan,
    bell_average_mc,
    bell_average_sharp,
    scan_figure,
)
from .correlator import _check_sampling, correlator_integrand, correlator_mc, correlator_sharp
from .distributions import CorrelatedGaussian, JointGaussian, Sharp
from .ekert import InterceptResend, ProtocolConfig, ProtocolTranscript, run_protocol
from .kinematics import ParticleKinematics, momentum_for_beta

ENV_OUT_DIR = "RELBELL_OUT_DIR"


class UsageError(Exception):
    """Bad command line or config file input."""


# ---------------------------------------------------------------------------
# flag value parsing and rendering (kept symmetric for round-tripping)

def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--{flag} expects three comma-separated numbers, got {text!r}")
    try:
        triple = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--{flag} has a non-numeric component: {text!r}") from None
    if not all(math.isfinite(c) for c in triple):
        raise UsageError(f"--{flag} must be finite, got {text!r}")
    return triple


def _parse_dir3(text: str, flag: str) -> tuple[float, float, float]:
    triple = _parse_triple(text, flag)
    norm = math.sqrt(sum(c * c for c in triple))
    if norm == 0.0:
        raise UsageError(f"--{flag} must be a nonzero direction, got {text!r}")
    if abs(norm - 1.0) > 1e-6:
        print(
            f"warning: normalizing --{flag} (|v| = {norm:.9g})",
            file=sys.stderr,
        )
    if abs(norm - 1.0) > 1e-12:
        return tuple(c / norm for c in triple)
    return triple


def _parse_sigma3(text: str, flag: str) -> tuple[float, float, float]:
    if "," in text:
        return _parse_triple(text, flag)
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--{flag} must be a number or triple, got {text!r}") from None
    return (value, value, value)


def _parse_vec_list(text: str, flag: str) -> tuple[tuple[float, float, float], ...]:
    chunks = [chunk for chunk in text.split(";") if chunk.strip()]
    if not chunks:
        raise UsageError(f"--{flag} must list at least one triple")
    return tuple(_parse_dir3(chunk, flag) for chunk in chunks)


def _parse_float(text: str, flag: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--{flag} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"--{flag} must be finite, got {text!r}")
    return value


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"--{flag} must be an integer, got {text!r}") from None


def _render_triple(value) -> str:
    return ",".join(repr(float(c)) for c in value)


def _render_vec_list(value) -> str:
    return ";".join(_render_triple(v) for v in value)


_KINDS = {
    "dir3": (_parse_dir3, _render_triple),
    "triple": (_parse_triple, _render_triple),
    "sigma3": (_parse_sigma3, _render_triple),
    "vecs": (_parse_vec_list, _render_vec_list),
    "float": (_parse_float, lambda v: repr(float(v))),
    "int": (_parse_int, lambda v: str(int(v))),
    "str": (lambda text, flag: text, lambda v: str(v)),
}

_REQUIRED = object()


@dataclass(frozen=True)
class _Flag:
    name: str            # long flag, e.g. "a-prime"
    kind: str
    default: object = None
    choices: tuple = ()
    help: str = ""

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")


_DIST_FLAGS = [
    _Flag("beta", "triple", (0.0, 0.0, 0.0), help="mean pair velocity"),
    _Flag("mass", "float", 1.0, help="particle rest mass"),
    _Flag("dist", "str", "sharp", ("sharp", "gaussian", "joint"),
          help="momentum profile"),
    _Flag("sigma", "sigma3", None, help="momentum spread (scalar or triple)"),
    _Flag("beta2", "triple", None, help="second-particle velocity"),
    _Flag("sigma2", "sigma3", None, help="second-particle spread (joint)"),
]

_MC_FLAGS = [
    _Flag("samples", "int", 100_000, help="Monte Carlo sample count"),
    _Flag("seed", "int", 0, help="random seed"),
    _Flag("workers", "int", 1, help="worker threads for chunk evaluation"),
]

_AXES_FLAGS = [
    _Flag("a", "dir3", DEFAULT_CONFIG.a, help="Alice axis a"),
    _Flag("a-prime", "dir3", DEFAULT_CONFIG.a_prime, help="Alice axis a'"),
    _Flag("b", "dir3", DEFAULT_CONFIG.b, help="Bob axis b"),
    _Flag("b-prime", "dir3", DEFAULT_CONFIG.b_prime, help="Bob axis b'"),
]

COMMAND_FLAGS: dict[str, list[_Flag]] = {
    "correlate": [
        _Flag("a", "dir3", _REQUIRED, help="axis for particle 1"),
        _Flag("b", "dir3", _REQUIRED, help="axis for particle 2"),
        *_DIST_FLAGS,
        *_MC_FLAGS,
        _Flag("out", "str", None, help="write the JSON record here"),
    ],
    "bell": [
        *_AXES_FLAGS,
        *_DIST_FLAGS,
        *_MC_FLAGS,
        _Flag("out", "str", None, help="write the JSON record here"),
    ],
    "scan": [
        _Flag("figure", "int", _REQUIRED, help="scan family, 1-6"),
        _Flag("resolution", "int", 101, help="points per scanned axis"),
        _Flag("beta-max", "float", 0.999, help="largest speed in beta scans"),
        _Flag("mass", "float", 1.0, help="particle rest mass"),
        _Flag("out", "str", "-", help="output path, - for stdout"),
        _Flag("format", "str", "csv", ("csv", "json"), help="table format"),
    ],
    "threshold": [
        *_AXES_FLAGS,
        *_DIST_FLAGS,
        *_MC_FLAGS,
        _Flag("out", "str", None, help="write the JSON record here"),
    ],
    "protocol": [
        _Flag("pairs", "int", 10_000, help="number of singlet pairs"),
        _Flag("seed", "int", 0, help="run seed"),
        *_AXES_FLAGS,
        *_DIST_FLAGS,
        _Flag("key-axes", "vecs", ((0.0, 0.0, 1.0),), help="shared key axes"),
        _Flag("eve-probability", "float", None,
              help="enable intercept-resend with this per-round probability"),
        _Flag("eve-pool", "vecs", None, help="Eve's measurement axes"),
        _Flag("test-fraction", "float", 0.5, help="fraction of test rounds"),
        _Flag("significance", "float", 0.01, help="false-alarm rate of the check"),
        _Flag("threshold-mode", "str", "empirical", ("empirical", "configured"),
              help="corrected-threshold source"),
        _Flag("threshold-samples", "int", 20_000,
              help="samples for the configured-mode threshold"),
        _Flag("out", "str", None, help="write the full transcript here"),
        _Flag("format", "str", "json", ("csv", "json"), help="transcript format"),
    ],
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: command, canonical parameters, and the library
    inputs built from them (the constructors validated every value)."""

    command: str
    params: dict
    inputs: dict

    def __getitem__(self, key: str):
        return self.params[key]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept values like "-1.0,0.0,0.0": anything starting with -<digit>
        # or -<dot> is flag data, not an option (all our options are --long)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: --beta must not quietly stand for --beta-max
    parser = _Parser(prog="relbell", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True
    for command, flags in COMMAND_FLAGS.items():
        cmd = sub.add_parser(command, allow_abbrev=False)
        cmd.add_argument("--config", default=None, help="flat key = value file")
        for flag in flags:
            cmd.add_argument(f"--{flag.name}", default=None, help=flag.help)
    return parser


def _read_config_file(path: str) -> list[str]:
    args: list[str] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        args.extend([f"--{key}", value])
    return args


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file values in front of explicit flags."""
    if not argv:
        return argv
    command, rest = argv[0], list(argv[1:])
    expanded: list[str] = []
    remaining: list[str] = []
    i = 0
    while i < len(rest):
        token = rest[i]
        if token == "--config":
            if i + 1 >= len(rest):
                raise UsageError("--config expects a file path")
            expanded.extend(_read_config_file(rest[i + 1]))
            i += 2
        elif token.startswith("--config="):
            expanded.extend(_read_config_file(token.split("=", 1)[1]))
            i += 1
        else:
            remaining.append(token)
            i += 1
    return [command, *expanded, *remaining]


def parse_args(argv: list[str]) -> RunConfig:
    """Parse an argv list into a validated :class:`RunConfig`."""
    parser = build_parser()
    namespace = parser.parse_args(_expand_config(list(argv)))
    command = namespace.command
    params: dict = {}
    for flag in COMMAND_FLAGS[command]:
        raw = getattr(namespace, flag.key)
        if raw is None:
            if flag.default is _REQUIRED:
                raise UsageError(f"{command}: --{flag.name} is required")
            params[flag.key] = flag.default
            continue
        parse = _KINDS[flag.kind][0]
        value = parse(raw, flag.name)
        if flag.choices and value not in flag.choices:
            raise UsageError(
                f"--{flag.name} must be one of {', '.join(map(str, flag.choices))}, "
                f"got {value!r}"
            )
        params[flag.key] = value
    if params.get("seed", 0) < 0:
        raise UsageError(f"--seed must be >= 0, got {params['seed']}")
    if params.get("dist") in ("gaussian", "joint") and params["sigma"] is None:
        raise UsageError(f"--dist {params['dist']} requires --sigma")
    try:
        inputs = _build_inputs(command, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return RunConfig(command=command, params=params, inputs=inputs)


def render_args(config: RunConfig) -> list[str]:
    """Inverse of :func:`parse_args`: parse_args(render_args(c)) == c."""
    argv = [config.command]
    for flag in COMMAND_FLAGS[config.command]:
        value = config.params[flag.key]
        if value is None or (flag.default is not _REQUIRED and value == flag.default):
            continue
        render = _KINDS[flag.kind][1]
        argv.extend([f"--{flag.name}", render(value)])
    return argv


def _build_distribution(command: str, params: dict):
    kind = params["dist"]
    # a spread or second-particle flag the profile does not read would be
    # dropped without a word, so it is a usage error
    used = {"sharp": (), "gaussian": ("sigma",), "joint": ("sigma", "beta2", "sigma2")}[kind]
    if command == "correlate" and kind == "sharp":
        used = ("beta2",)  # the mixed-kinematics value
    for name in ("sigma", "beta2", "sigma2"):
        if params[name] is not None and name not in used:
            raise UsageError(f"--{name} has no effect on {command} with --dist {kind}")
    beta = params["beta"]
    mass = params["mass"]
    if kind == "sharp":
        return Sharp.from_beta(beta, mass)
    if kind == "gaussian":
        return CorrelatedGaussian.from_beta(beta, params["sigma"], mass)
    beta2 = params["beta2"] if params["beta2"] is not None else beta
    sigma2 = params["sigma2"] if params["sigma2"] is not None else params["sigma"]
    return JointGaussian(
        momentum_for_beta(beta, mass), params["sigma"],
        momentum_for_beta(beta2, mass), sigma2, mass,
    )


def _build_inputs(command: str, params: dict) -> dict:
    """The library objects a command runs on.

    Their constructors and check helpers are the only range checks, so a
    ``ValueError`` here is bad input, not a failed run.
    """
    if command == "scan":
        _check_scan(params["figure"], params["resolution"], params["mass"], params["beta_max"])
        return {}
    inputs = {"distribution": _build_distribution(command, params)}
    if command == "correlate":
        if params["beta2"] is not None:
            inputs["partner"] = ParticleKinematics.from_beta(params["beta2"], params["mass"])
    else:
        inputs["bell"] = BellConfig(params["a"], params["a_prime"], params["b"], params["b_prime"])
    if "samples" in params:
        _check_sampling(params["samples"], params["workers"])
    if command == "protocol":
        if params["eve_pool"] is not None and params["eve_probability"] is None:
            raise UsageError("--eve-pool has no effect without --eve-probability")
        eve = None
        if params["eve_probability"] is not None:
            pool = {} if params["eve_pool"] is None else {"basis_pool": params["eve_pool"]}
            eve = InterceptResend(attack_probability=params["eve_probability"], **pool)
        inputs["protocol"] = ProtocolConfig(
            pair_count=params["pairs"],
            distribution=inputs["distribution"],
            seed=params["seed"],
            bell=inputs["bell"],
            key_axes=params["key_axes"],
            eve=eve,
            test_fraction=params["test_fraction"],
            significance=params["significance"],
            threshold_mode=params["threshold_mode"],
            threshold_samples=params["threshold_samples"],
        )
    return inputs


# ---------------------------------------------------------------------------
# execution

def _resolve_out(destination: str):
    """Map an --out value to a Path, honoring the output-directory variable."""
    if destination == "-":
        return None
    path = Path(destination)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def emit(obj, fmt: str, destination: str) -> None:
    """Write a table, transcript, or record to a path or stdout ('-')."""
    path = _resolve_out(destination)
    if path is None:
        _write(obj, fmt, sys.stdout)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        _write(obj, fmt, stream)


def _write(obj, fmt: str, stream) -> None:
    if isinstance(obj, (ScanTable, ProtocolTranscript)):
        obj.to_csv(stream) if fmt == "csv" else obj.to_json(stream)
    elif isinstance(obj, dict):
        if fmt != "json":
            raise ValueError("plain records only support the json format")
        json.dump(obj, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")
    else:
        raise TypeError(f"cannot emit object of type {type(obj).__name__}")


def _estimate_record(estimate) -> dict:
    record = {
        "value": estimate.value,
        "standard_error": estimate.standard_error,
        "samples": estimate.samples,
        "rejected": estimate.rejected,
    }
    if estimate.warning:
        record["warning"] = estimate.warning
    return record


def _cmd_correlate(run: RunConfig) -> None:
    dist = run.inputs["distribution"]
    if isinstance(dist, Sharp):
        if run["beta2"] is None:
            value = correlator_sharp(run["a"], run["b"], run["beta"], run["mass"])
        else:
            value = correlator_integrand(
                run["a"], run["b"],
                ParticleKinematics(dist.mass, dist.momentum), run.inputs["partner"],
            )
        print(repr(value))
        record = {"value": value, "standard_error": 0.0, "samples": 0, "rejected": 0}
    else:
        estimate = correlator_mc(
            run["a"], run["b"], dist, run["samples"], run["seed"], workers=run["workers"]
        )
        record = _estimate_record(estimate)
        print(json.dumps(record, sort_keys=True))
    if run["out"] is not None:
        emit(record, "json", run["out"])


def _cmd_bell(run: RunConfig) -> None:
    dist = run.inputs["distribution"]
    if isinstance(dist, Sharp):
        value = bell_average_sharp(run.inputs["bell"], run["beta"], run["mass"])
        print(repr(value))
        record = {"value": value, "standard_error": 0.0, "samples": 0, "rejected": 0}
    else:
        estimate = bell_average_mc(
            run.inputs["bell"], dist, run["samples"], run["seed"], workers=run["workers"]
        )
        record = _estimate_record(estimate)
        print(json.dumps(record, sort_keys=True))
    if run["out"] is not None:
        emit(record, "json", run["out"])


def _cmd_scan(run: RunConfig) -> None:
    table = scan_figure(run["figure"], run["resolution"], run["mass"], run["beta_max"])
    emit(table, run["format"], run["out"])


def _cmd_threshold(run: RunConfig) -> None:
    estimate = bell_average_mc(
        run.inputs["bell"], run.inputs["distribution"],
        run["samples"], run["seed"], workers=run["workers"],
    )
    record = {
        "threshold": abs(estimate.value),
        "standard_error": estimate.standard_error,
        "samples": estimate.samples,
    }
    print(json.dumps(record, sort_keys=True))
    if run["out"] is not None:
        emit(record, "json", run["out"])


def _cmd_protocol(run: RunConfig) -> None:
    transcript = run_protocol(run.inputs["protocol"])
    print(json.dumps(transcript.summary(), sort_keys=True))
    if run["out"] is not None:
        emit(transcript, run["format"], run["out"])


_COMMANDS = {
    "correlate": _cmd_correlate,
    "bell": _cmd_bell,
    "scan": _cmd_scan,
    "threshold": _cmd_threshold,
    "protocol": _cmd_protocol,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
        _COMMANDS[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
