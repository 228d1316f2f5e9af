"""Experiment configuration: a flat JSON schema with normative field names.

Sections: model, states, schedule, output, tolerances, plus an optional
experiment section with grids for individual experiment kinds. The
zero-configuration defaults reproduce the illustration parameters of
the oscillator-qubit example; analysis experiments default to its
two-level (qubit-qubit) reduction.
"""

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from . import generators, models
from .dynamics import DEFAULT_MAP_TOL, DEFAULT_STEP_TOL, _cycle_count
from .generators import CycleGenerator, SwitchingFunction
from .qcore import DensityMatrix, HilbertSpace, Operator


class ConfigError(ValueError):
    """Configuration failed validation; the message names the field."""


def _require_grid(values, minimum: int, field: str):
    if len(values) < minimum or any(v <= 0 for v in values) or len(set(values)) < len(values):
        raise ConfigError(f"{field}: need at least {minimum} distinct positive entries")


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SwitchingSpec:
    kind: str = "sin_squared"  # constant | sin_squared | square_pulse | table
    peak: float = 2.0          # value for constant, peak for sin_squared, height for square
    start: float = 0.0
    stop: float = 0.5
    zs: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def build(self) -> SwitchingFunction:
        try:
            if self.kind == "constant":
                return generators.constant(self.peak)
            if self.kind == "sin_squared":
                return generators.sin_squared(self.peak)
            if self.kind == "square_pulse":
                return generators.square_pulse(self.peak, self.start, self.stop)
            if self.kind == "table":
                return generators.from_table(self.zs, self.values)
        except ValueError as exc:
            raise ConfigError(f"model.switching: {exc}") from exc
        raise ConfigError(f"model.switching.kind: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "oscillator_qubit"  # oscillator_qubit | qubit_qubit
    nu: float = 1.0
    omega: float = 1.0
    n_vec: tuple[float, float, float] = (1.0, 0.0, 0.0)
    cutoff: int = 30
    switching: SwitchingSpec = field(default_factory=SwitchingSpec)

    def __post_init__(self):
        if self.kind not in ("oscillator_qubit", "qubit_qubit"):
            raise ConfigError(f"model.kind: unknown kind {self.kind!r}")

    def build(self) -> tuple[models.OscillatorQubitModel, CycleGenerator]:
        g = self.switching.build()
        cutoff = 2 if self.kind == "qubit_qubit" else self.cutoff
        try:
            model = models.OscillatorQubitModel(
                nu=self.nu, omega=self.omega, n_vec=self.n_vec, cutoff=cutoff, g=g
            )
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
        return model, models.build_oscillator_qubit(model)


def _parse_complex_matrix(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
        if arr.ndim == 3 and arr.shape[2] == 2:
            return arr[:, :, 0] + 1j * arr[:, :, 1]
        if arr.ndim == 2:
            return arr.astype(complex)
    except (TypeError, ValueError):
        pass
    raise ConfigError("states.initial_matrix: expected a matrix of numbers or [re, im] pairs")


@dataclass(frozen=True)
class StatesSpec:
    rho_a_bloch: tuple[float, float, float] = (1.0, 0.0, 0.0)
    initial_kind: str = "coherent"  # coherent | fock | matrix
    alpha: tuple[float, float] = (_INV_SQRT2, _INV_SQRT2)
    fock_index: int = 0
    initial_matrix: tuple | None = None

    def build_rho_a(self) -> DensityMatrix:
        try:
            return models.bloch_density(self.rho_a_bloch)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"states.rho_a_bloch: {exc}") from exc

    def build_initial(self, cutoff: int) -> tuple[np.ndarray | None, DensityMatrix]:
        """Return (pure state vector or None, density matrix) on the system."""
        space = HilbertSpace((cutoff,))
        if self.initial_kind == "coherent":
            alpha = complex(self.alpha[0], self.alpha[1])
            try:
                psi = models.coherent_state(alpha, cutoff)
            except ValueError as exc:
                raise ConfigError(f"states.alpha: {exc}") from exc
            return psi, DensityMatrix.pure(psi, (cutoff,))
        if self.initial_kind == "fock":
            try:
                psi = models.fock_state(self.fock_index, cutoff)
            except ValueError as exc:
                raise ConfigError(f"states.fock_index: {exc}") from exc
            return psi, DensityMatrix.pure(psi, (cutoff,))
        if self.initial_kind == "matrix":
            if self.initial_matrix is None:
                raise ConfigError("states.initial_matrix: required for initial_kind 'matrix'")
            m = _parse_complex_matrix(self.initial_matrix)
            try:
                rho = DensityMatrix(Operator(m, space))
            except ValueError as exc:
                raise ConfigError(f"states.initial_matrix: {exc}") from exc
            return None, rho
        raise ConfigError(f"states.initial_kind: unknown kind {self.initial_kind!r}")


@dataclass(frozen=True)
class ScheduleSpec:
    f_list: tuple[float, ...] = (10.0, 5.0, 2.0)
    total_time: float = 10.0
    samples_per_cycle: int = 4

    def __post_init__(self):
        _require_grid(self.f_list, 1, "schedule.f_list")
        if self.total_time <= 0:
            raise ConfigError("schedule.total_time: must be positive")
        if self.samples_per_cycle < 1:
            raise ConfigError("schedule.samples_per_cycle: must be >= 1")

    def snapped_cycles(self, f: float) -> tuple[int, float]:
        """Integer cycle count for rate f and the snapped total time."""
        n = _cycle_count(f, self.total_time)
        return n, n / f


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None


@dataclass(frozen=True)
class TolerancesSpec:
    step_tol: float = DEFAULT_STEP_TOL
    map_tol: float = DEFAULT_MAP_TOL

    def __post_init__(self):
        # no substep ladder can meet a zero or negative tolerance
        if self.step_tol <= 0:
            raise ConfigError("tolerances.step_tol: must be positive")
        if self.map_tol <= 0:
            raise ConfigError("tolerances.map_tol: must be positive")


@dataclass(frozen=True)
class ExperimentSpec:
    """Grids for the individual experiment kinds (all optional)."""

    chernoff_ns: tuple[int, ...] = (16, 32, 64, 128, 256)
    chernoff_time: float = 1.0
    dissipative_times: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    strobe_dts: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    strobe_tau_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    gradual_kappas: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0, 64.0)
    gradual_time: float = 2.0

    def __post_init__(self):
        _require_grid(self.chernoff_ns, 3, "experiment.chernoff_ns")
        if self.chernoff_time <= 0:
            raise ConfigError("experiment.chernoff_time: must be positive")
        _require_grid(self.dissipative_times, 2, "experiment.dissipative_times")
        _require_grid(self.strobe_dts, 1, "experiment.strobe_dts")
        if not self.strobe_tau_fractions or any(not 0 < f <= 1 for f in self.strobe_tau_fractions):
            raise ConfigError("experiment.strobe_tau_fractions: entries must lie in (0, 1]")
        _require_grid(self.gradual_kappas, 2, "experiment.gradual_kappas")
        if self.gradual_time <= 0:
            raise ConfigError("experiment.gradual_time: must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec = field(default_factory=ModelSpec)
    states: StatesSpec = field(default_factory=StatesSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    output: OutputSpec = field(default_factory=OutputSpec)
    tolerances: TolerancesSpec = field(default_factory=TolerancesSpec)
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _build_section(cls, "", data)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _tuplify(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _fits(kind, value) -> bool:
    """Whether a JSON value fits a field annotation: int, float, str, tuples of those, | None."""
    origin = typing.get_origin(kind)
    if kind is tuple or origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        args = typing.get_args(kind)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        return not args or (len(args) == len(value) and all(map(_fits, args, value)))
    if origin is not None:  # a union: X | None
        return any(_fits(k, value) for k in typing.get_args(kind))
    # by type, not isinstance: a JSON true is no number, and 2.0 no integer;
    # Python's json reads NaN and Infinity, which no field takes
    if kind is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is kind


def _build_section(section_cls, path: str, data):
    """Build a section, or the root at path "", from its JSON object and field annotations."""
    where = path or "config root"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    types = {f.name: f.type for f in dataclasses.fields(section_cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        kind, field_path = types[name], f"{path}.{name}" if path else name
        if dataclasses.is_dataclass(kind):
            kwargs[name] = _build_section(kind, field_path, value)
            continue
        if not _fits(kind, value):
            shown = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigError(f"{field_path}: expected {shown}, got {value!r}")
        kwargs[name] = _tuplify(value)
    try:
        return section_cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def default_config() -> ExperimentConfig:
    """Illustration defaults: oscillator-qubit, caption parameters."""
    return ExperimentConfig()

def qubit_defaults() -> ExperimentConfig:
    """Two-level reduction used by the scaling and error experiments.

    The actuator state is deliberately generic (neither an eigenstate of
    the coupling's actuator factor nor symmetric under it): for the
    illustration values rho_A = (I + sigma_x)/2 the first-order
    dissipative coefficient cancels exactly and every first-order
    scaling law degenerates to second order.
    """
    return ExperimentConfig(
        model=ModelSpec(kind="qubit_qubit", cutoff=2),
        states=StatesSpec(rho_a_bloch=(0.6, 0.0, 0.5), initial_kind="fock", fock_index=0),
        schedule=ScheduleSpec(f_list=(20.0, 40.0, 80.0), total_time=2.0, samples_per_cycle=1),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.loads(text)
