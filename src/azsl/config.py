"""Line-oriented `key = value` experiment configuration.

Dotted keys group settings (`noise.dim = 20`), `#` starts a comment, unknown
keys are rejected with a line number. Defaults are the full-scale training
recipe (noise dim 20, learning rate 1e-5, 400 generated rows per class,
1024/512 and 4096 hidden units); desk-scale runs override them explicitly in
their config files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .data import MODE_TRANSDUCTIVE, SyntheticSpec, TEACHER_MODES
from .regularizers import REG_KINDS
from .seeding import derive_seed
from .wire import SCENARIOS


class ConfigError(Exception):
    """Malformed or invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    scenario: str = "white"
    teacher_mode: str = MODE_TRANSDUCTIVE
    dataset_path: str | None = None
    synthetic: SyntheticSpec | None = None
    split_unseen: int | tuple[int, ...] | None = None  # None: classes - seen (synthetic), else 2
    split_ratio: float = 0.8
    regularizer: str = "kl"
    alpha: float = 0.5
    noise_dim: int = 20
    t_g: int = 2000
    t_s: int = 2000
    batch_size: int = 64
    per_class_count: int = 400
    lr: float = 1e-5
    min_verified: int = 1
    retry_cap: int = 2
    verify: bool = True
    teacher_epochs: int = 200
    teacher_batch: int = 64
    teacher_hidden: tuple[int, ...] = (1024, 512)
    generator_hidden: tuple[int, ...] = (4096,)
    channel: str = "inproc"
    endpoint: tuple[str, int] | None = None
    out: str = "azsl_out"
    seed: int = 1
    data_seed: int | None = None

    @property
    def client_seed(self) -> int:
        """Seeds the client's inits, epoch batches and shuffles."""
        return derive_seed(self.seed, "client")

    @property
    def noise_seed(self) -> int:
        """Seeds the generator noise drawn for the quota and the inductive classifier."""
        return derive_seed(self.seed, "noise")


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_int_tuple(v: str) -> tuple[int, ...]:
    return tuple(int(t.strip()) for t in v.split(",") if t.strip())


def _parse_unseen(v: str) -> int | tuple[int, ...]:
    """A count of unseen classes, or the list of their ids (one id is written `3,`)."""
    try:
        return int(v)
    except ValueError:
        return _parse_int_tuple(v)


def _parse_endpoint(v: str) -> tuple[str, int]:
    host, _, text = v.rpartition(":")
    if not host:
        raise ValueError(f"endpoint must be host:port, got {v!r}")
    port = int(text)
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0..65535, got {port}")
    return host, port


def _join(values) -> str:
    return ",".join(map(str, values))


# parser -> how emit_config writes its value back; any other parser writes str(value)
_FORMAT = {
    float: repr,
    _parse_bool: lambda v: "true" if v else "false",
    _parse_int_tuple: _join,
    _parse_unseen: lambda v: str(v) if isinstance(v, int) else _join(v) + ("," if len(v) == 1 else ""),
    _parse_endpoint: lambda v: f"{v[0]}:{v[1]}",
}


# key -> (attribute path, parser)
_KEYS: dict[str, tuple[str, callable]] = {
    "scenario": ("scenario", str),
    "teacher_mode": ("teacher_mode", str),
    "dataset.path": ("dataset_path", str),
    "dataset.synthetic": ("_synthetic_flag", _parse_bool),
    "dataset.synthetic.classes": ("synthetic.n_classes", int),
    "dataset.synthetic.seen": ("synthetic.seen_count", int),
    "dataset.synthetic.dx": ("synthetic.d_x", int),
    "dataset.synthetic.da": ("synthetic.d_a", int),
    "dataset.synthetic.per_class": ("synthetic.per_class", int),
    "dataset.synthetic.separation": ("synthetic.separation", float),
    "dataset.synthetic.noise": ("synthetic.noise", float),
    "dataset.synthetic.link_seed": ("synthetic.link_seed", int),
    "split.unseen": ("split_unseen", _parse_unseen),
    "split.ratio": ("split_ratio", float),
    "regularizer": ("regularizer", str),
    "alpha": ("alpha", float),
    "noise.dim": ("noise_dim", int),
    "train.generator_epochs": ("t_g", int),
    "train.student_epochs": ("t_s", int),
    "train.batch_size": ("batch_size", int),
    "train.per_class": ("per_class_count", int),
    "train.lr": ("lr", float),
    "train.min_verified": ("min_verified", int),
    "train.retry_cap": ("retry_cap", int),
    "train.verify": ("verify", _parse_bool),
    "teacher.epochs": ("teacher_epochs", int),
    "teacher.batch_size": ("teacher_batch", int),
    "teacher.hidden": ("teacher_hidden", _parse_int_tuple),
    "generator.hidden": ("generator_hidden", _parse_int_tuple),
    "channel": ("channel", str),
    "endpoint": ("endpoint", _parse_endpoint),
    "out": ("out", str),
    "seed": ("seed", int),
    "data_seed": ("data_seed", int),
}


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    synth_fields: dict[str, object] = {}
    synth_flag, flag_line = None, 0
    seen_keys: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{line_no}: expected `key = value`")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{line_no}: unknown key {key!r}")
        if key in seen_keys:
            raise ConfigError(f"{origin}:{line_no}: duplicate key {key!r}")
        seen_keys.add(key)
        attr, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{origin}:{line_no}: bad value for {key}: {exc}") from None
        if attr == "_synthetic_flag":
            synth_flag, flag_line = parsed, line_no
        elif attr.startswith("synthetic."):
            synth_fields[attr.split(".", 1)[1]] = parsed
        else:
            setattr(cfg, attr, parsed)
    if synth_flag is False and synth_fields:
        raise ConfigError(f"{origin}:{flag_line}: dataset.synthetic = false contradicts the dataset.synthetic.* keys")
    if synth_flag or synth_fields:
        try:
            cfg.synthetic = SyntheticSpec(**synth_fields)
        except Exception as exc:
            raise ConfigError(f"{origin}: invalid synthetic spec: {exc}") from None
    validate(cfg, origin)
    return cfg


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    cfg = parse_config_text(path.read_text(), origin=str(path))
    if cfg.dataset_path is not None and not Path(cfg.dataset_path).exists():
        raise ConfigError(f"{path}: dataset file {cfg.dataset_path} does not exist")
    return cfg


def validate(cfg: ExperimentConfig, origin: str = "config") -> None:
    """Raise ConfigError unless every setting is in range; parsed and built configs alike."""

    def bad(msg: str):
        raise ConfigError(f"{origin}: {msg}")

    if cfg.scenario not in SCENARIOS:
        bad(f"scenario must be one of {SCENARIOS}")
    if cfg.teacher_mode not in TEACHER_MODES:
        bad(f"teacher_mode must be one of {TEACHER_MODES}")
    if (cfg.dataset_path is None) == (cfg.synthetic is None):
        bad("exactly one dataset source required (dataset.path or dataset.synthetic)")
    if cfg.regularizer not in REG_KINDS:
        bad(f"regularizer must be one of {REG_KINDS}")
    if not (math.isfinite(cfg.alpha) and cfg.alpha >= 0):
        bad("alpha must be finite and >= 0")
    unseen = cfg.split_unseen
    if cfg.synthetic is not None and unseen is not None:
        want = cfg.synthetic.n_classes - cfg.synthetic.seen_count
        got = unseen if isinstance(unseen, int) else len(set(unseen))
        if got != want:
            bad(
                f"split.unseen gives {got} unseen classes, but dataset.synthetic.classes - "
                f"dataset.synthetic.seen gives {want}"
            )
    if isinstance(unseen, int) and unseen < 1:
        bad(f"split.unseen count must be >= 1, got {unseen}")
    if unseen is not None and not isinstance(unseen, int):
        if not unseen:
            bad("split.unseen lists no class ids")
        if len(set(unseen)) != len(unseen):
            bad(f"split.unseen repeats a class id: {_join(unseen)}")
        if cfg.synthetic is None:  # a feature file's class count is known only once it is read
            if min(unseen) < 0:
                bad(f"split.unseen ids must be >= 0: {_join(unseen)}")
        elif not all(0 <= c < cfg.synthetic.n_classes for c in unseen):
            bad(f"split.unseen ids must be in 0..{cfg.synthetic.n_classes - 1}: {_join(unseen)}")
    if not 0.0 < cfg.split_ratio < 1.0:
        bad("split.ratio must be in (0, 1)")
    if cfg.noise_dim < 1:
        bad("noise.dim must be >= 1")
    if min(cfg.t_g, cfg.t_s, cfg.batch_size, cfg.per_class_count, cfg.teacher_epochs, cfg.teacher_batch) < 1:
        bad("epoch/batch/per-class counts must be >= 1")
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        bad("train.lr must be finite and > 0")
    if cfg.min_verified < 0 or cfg.retry_cap < 0:
        bad("train.min_verified and train.retry_cap must be >= 0")
    if not cfg.teacher_hidden or not cfg.generator_hidden:
        bad("hidden layer lists must not be empty")
    if min(*cfg.teacher_hidden, *cfg.generator_hidden) < 1:
        bad("hidden layer sizes must be >= 1")
    if cfg.channel not in ("inproc", "tcp"):
        bad("channel must be inproc or tcp")
    if cfg.channel == "tcp":
        if cfg.endpoint is None:
            bad("tcp channel requires endpoint = host:port")
        if cfg.dataset_path is not None:
            bad("remote runs need the synthetic dataset source; feature files stay with the server")
    if cfg.seed < 0:
        bad("seed must be >= 0")


def _emitted(cfg: ExperimentConfig, attr: str):
    """The value behind one key's attribute path; None leaves the key out."""
    if attr == "_synthetic_flag":
        return True if cfg.synthetic is not None else None
    group, _, name = attr.rpartition(".")
    owner = cfg.synthetic if group else cfg
    return None if owner is None else getattr(owner, name)


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every set key explicit, in _KEYS order; reparses equal."""
    lines = ["# canonical experiment config"]
    for key, (attr, parser) in _KEYS.items():
        value = _emitted(cfg, attr)
        if value is not None:
            lines.append(f"{key} = {_FORMAT.get(parser, str)(value)}")
    return "\n".join(lines) + "\n"


def with_overrides(cfg: ExperimentConfig, **kw) -> ExperimentConfig:
    """A copy with some fields replaced, validated like a parsed config."""
    out = replace(cfg, **kw)
    validate(out, f"override of {', '.join(kw)}")
    return out
