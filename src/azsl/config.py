"""Line-oriented `key = value` experiment configuration.

Dotted keys group settings (`noise.dim = 20`), `#` starts a comment, unknown
keys are rejected with a line number. Defaults are the full-scale training
recipe (noise dim 20, learning rate 1e-5, 400 generated rows per class,
1024/512 and 4096 hidden units); desk-scale runs override them explicitly in
their config files.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .data import MODE_TRANSDUCTIVE, SyntheticSpec, TEACHER_MODES
from .regularizers import REG_KINDS
from .wire import SCENARIOS


class ConfigError(Exception):
    """Malformed or invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    scenario: str = "white"
    teacher_mode: str = MODE_TRANSDUCTIVE
    dataset_path: str | None = None
    dataset_format: str | None = None
    synthetic: SyntheticSpec | None = None
    split_unseen: int | tuple[int, ...] = 2
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


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_int_tuple(v: str) -> tuple[int, ...]:
    return tuple(int(t.strip()) for t in v.split(",") if t.strip())


def _parse_endpoint(v: str) -> tuple[str, int]:
    host, _, port = v.rpartition(":")
    if not host:
        raise ValueError(f"endpoint must be host:port, got {v!r}")
    return host, int(port)


# key -> (attribute path, parser)
_KEYS: dict[str, tuple[str, callable]] = {
    "scenario": ("scenario", str),
    "teacher_mode": ("teacher_mode", str),
    "dataset.path": ("dataset_path", str),
    "dataset.format": ("dataset_format", str),
    "dataset.synthetic": ("_synthetic_flag", _parse_bool),
    "dataset.synthetic.classes": ("synthetic.n_classes", int),
    "dataset.synthetic.seen": ("synthetic.seen_count", int),
    "dataset.synthetic.dx": ("synthetic.d_x", int),
    "dataset.synthetic.da": ("synthetic.d_a", int),
    "dataset.synthetic.per_class": ("synthetic.per_class", int),
    "dataset.synthetic.separation": ("synthetic.separation", float),
    "dataset.synthetic.noise": ("synthetic.noise", float),
    "dataset.synthetic.link_seed": ("synthetic.link_seed", int),
    "split.unseen": ("split_unseen", str),
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
    synth_requested = False
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
            synth_requested = synth_requested or parsed
        elif attr.startswith("synthetic."):
            synth_requested = True
            synth_fields[attr.split(".", 1)[1]] = parsed
        elif attr == "split_unseen":
            try:
                cfg.split_unseen = int(parsed)
            except ValueError:
                try:
                    cfg.split_unseen = _parse_int_tuple(parsed)
                except ValueError:
                    raise ConfigError(f"{origin}:{line_no}: bad value for split.unseen") from None
        else:
            setattr(cfg, attr, parsed)
    if synth_requested:
        try:
            cfg.synthetic = SyntheticSpec(**synth_fields)
        except Exception as exc:
            raise ConfigError(f"{origin}: invalid synthetic spec: {exc}") from None
    _validate(cfg, origin)
    return cfg


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    cfg = parse_config_text(path.read_text(), origin=str(path))
    if cfg.dataset_path is not None and not Path(cfg.dataset_path).exists():
        raise ConfigError(f"{path}: dataset file {cfg.dataset_path} does not exist")
    return cfg


def _validate(cfg: ExperimentConfig, origin: str) -> None:
    def bad(msg: str):
        raise ConfigError(f"{origin}: {msg}")

    if cfg.scenario not in SCENARIOS:
        bad(f"scenario must be one of {SCENARIOS}")
    if cfg.teacher_mode not in TEACHER_MODES:
        bad(f"teacher_mode must be one of {TEACHER_MODES}")
    if (cfg.dataset_path is None) == (cfg.synthetic is None):
        bad("exactly one dataset source required (dataset.path or dataset.synthetic)")
    if cfg.dataset_format not in (None, "csv", "azb"):
        bad("dataset.format must be csv or azb")
    if cfg.regularizer not in REG_KINDS:
        bad(f"regularizer must be one of {REG_KINDS}")
    if cfg.alpha < 0:
        bad("alpha must be >= 0")
    if not 0.0 < cfg.split_ratio < 1.0:
        bad("split.ratio must be in (0, 1)")
    if cfg.noise_dim < 1:
        bad("noise.dim must be >= 1")
    if min(cfg.t_g, cfg.t_s, cfg.batch_size, cfg.per_class_count, cfg.teacher_epochs, cfg.teacher_batch) < 1:
        bad("epoch/batch/per-class counts must be >= 1")
    if cfg.lr <= 0:
        bad("train.lr must be > 0")
    if cfg.min_verified < 0 or cfg.retry_cap < 0:
        bad("train.min_verified and train.retry_cap must be >= 0")
    if not cfg.teacher_hidden or not cfg.generator_hidden:
        bad("hidden layer lists must not be empty")
    if cfg.channel not in ("inproc", "tcp"):
        bad("channel must be inproc or tcp")
    if cfg.channel == "tcp":
        if cfg.endpoint is None:
            bad("tcp channel requires endpoint = host:port")
        if cfg.dataset_path is not None:
            bad("remote runs need the synthetic dataset source; feature files stay with the server")
    if cfg.seed < 0:
        bad("seed must be >= 0")


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key explicit, stable order; reparses equal."""
    synth = cfg.synthetic
    lines = ["# canonical experiment config"]

    def put(key: str, value):
        lines.append(f"{key} = {value}")

    put("scenario", cfg.scenario)
    put("teacher_mode", cfg.teacher_mode)
    if cfg.dataset_path is not None:
        put("dataset.path", cfg.dataset_path)
        if cfg.dataset_format:
            put("dataset.format", cfg.dataset_format)
    else:
        put("dataset.synthetic", "true")
        put("dataset.synthetic.classes", synth.n_classes)
        put("dataset.synthetic.seen", synth.seen_count)
        put("dataset.synthetic.dx", synth.d_x)
        put("dataset.synthetic.da", synth.d_a)
        put("dataset.synthetic.per_class", synth.per_class)
        put("dataset.synthetic.separation", repr(synth.separation))
        put("dataset.synthetic.noise", repr(synth.noise))
        put("dataset.synthetic.link_seed", synth.link_seed)
    put(
        "split.unseen",
        cfg.split_unseen if isinstance(cfg.split_unseen, int) else ",".join(map(str, cfg.split_unseen)),
    )
    put("split.ratio", repr(cfg.split_ratio))
    put("regularizer", cfg.regularizer)
    put("alpha", repr(cfg.alpha))
    put("noise.dim", cfg.noise_dim)
    put("train.generator_epochs", cfg.t_g)
    put("train.student_epochs", cfg.t_s)
    put("train.batch_size", cfg.batch_size)
    put("train.per_class", cfg.per_class_count)
    put("train.lr", repr(cfg.lr))
    put("train.min_verified", cfg.min_verified)
    put("train.retry_cap", cfg.retry_cap)
    put("train.verify", "true" if cfg.verify else "false")
    put("teacher.epochs", cfg.teacher_epochs)
    put("teacher.batch_size", cfg.teacher_batch)
    put("teacher.hidden", ",".join(map(str, cfg.teacher_hidden)))
    put("generator.hidden", ",".join(map(str, cfg.generator_hidden)))
    put("channel", cfg.channel)
    if cfg.endpoint is not None:
        put("endpoint", f"{cfg.endpoint[0]}:{cfg.endpoint[1]}")
    put("out", cfg.out)
    put("seed", cfg.seed)
    if cfg.data_seed is not None:
        put("data_seed", cfg.data_seed)
    return "\n".join(lines) + "\n"


def with_overrides(cfg: ExperimentConfig, **kw) -> ExperimentConfig:
    """A copy with some fields replaced, validated like a parsed config."""
    out = replace(cfg, **kw)
    _validate(out, f"override of {', '.join(kw)}")
    return out
