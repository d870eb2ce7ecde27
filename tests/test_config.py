import pytest

from azsl.config import ConfigError, ExperimentConfig, emit_config, parse_config, parse_config_text, validate
from azsl.data import SyntheticSpec, make_synthetic
from azsl.experiment import build_split

MINIMAL = """
dataset.synthetic = true
scenario = white
teacher_mode = transductive
"""
FILE_SOURCE = "dataset.path = feats.csv\n"

# (dataset source, split.unseen value, error)
UNSEEN_ID_ERRORS = [
    (MINIMAL, "8,99", r"split.unseen ids must be in 0..9: 8,99"),
    (MINIMAL, "-1,9", r"split.unseen ids must be in 0..9: -1,9"),
    (MINIMAL, "8,8,9", r"split.unseen repeats a class id: 8,8,9"),
    (FILE_SOURCE, "1,1,2", r"split.unseen repeats a class id: 1,1,2"),
    (FILE_SOURCE, "-1,2", r"split.unseen ids must be >= 0: -1,2"),
    (FILE_SOURCE, "", r"split.unseen lists no class ids"),
]


class TestParsing:
    def test_minimal_fills_recipe_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.noise_dim == 20
        assert cfg.lr == 1e-5
        assert cfg.per_class_count == 400
        assert cfg.alpha == 0.5
        assert cfg.teacher_hidden == (1024, 512)
        assert cfg.generator_hidden == (4096,)
        assert cfg.synthetic is not None

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(MINIMAL + "\n# a comment\nalpha = 1.0  # trailing\n\n")
        assert cfg.alpha == 1.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=":5: unknown key"):
            parse_config_text(MINIMAL + "banana = 3\n")

    def test_type_error_reports_line(self):
        with pytest.raises(ConfigError, match=":5: bad value"):
            parse_config_text(MINIMAL + "noise.dim = many\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "alpha = 1\nalpha = 2\n")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_text(MINIMAL + "alpha = -1\n")

    @pytest.mark.parametrize("line, key", [
        ("train.lr = nan", "train.lr"), ("train.lr = inf", "train.lr"), ("train.lr = 0", "train.lr"),
        ("alpha = nan", "alpha"), ("alpha = inf", "alpha"),
    ])
    def test_non_finite_lr_and_alpha_rejected(self, line, key):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config_text(MINIMAL + line + "\n")

    def test_missing_dataset_source(self):
        with pytest.raises(ConfigError, match="dataset source"):
            parse_config_text("scenario = white\nteacher_mode = transductive\n")

    def test_two_dataset_sources_rejected(self, tmp_path):
        f = tmp_path / "x.azb"
        f.write_bytes(b"")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_text(MINIMAL + f"dataset.path = {f}\n")

    def test_tcp_requires_endpoint(self):
        with pytest.raises(ConfigError, match="endpoint"):
            parse_config_text(MINIMAL + "channel = tcp\n")

    def test_tcp_with_feature_files_rejected(self, tmp_path):
        f = tmp_path / "x.azb"
        f.write_bytes(b"")
        text = (
            "scenario = white\nteacher_mode = transductive\n"
            f"dataset.path = {f}\nchannel = tcp\nendpoint = 127.0.0.1:9\n"
        )
        with pytest.raises(ConfigError, match="stay with the server"):
            parse_config_text(text)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            parse_config("/nope/missing.azsl")

    def test_referenced_dataset_must_exist(self, tmp_path):
        cfg_file = tmp_path / "c.azsl"
        cfg_file.write_text(
            "scenario = white\nteacher_mode = transductive\ndataset.path = /missing.azb\n"
        )
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(cfg_file)

    def test_synthetic_keys_imply_synthetic_source(self):
        cfg = parse_config_text(
            "scenario = black\nteacher_mode = inductive\ndataset.synthetic.classes = 6\n"
            "dataset.synthetic.seen = 4\n"
        )
        assert cfg.synthetic.n_classes == 6
        assert cfg.synthetic.seen_count == 4

    @pytest.mark.parametrize("order", ["flag first", "flag last"])
    def test_synthetic_false_with_synthetic_keys_rejected(self, order):
        lines = ["dataset.synthetic = false", "dataset.synthetic.per_class = 50"]
        if order == "flag last":
            lines.reverse()
        line = lines.index("dataset.synthetic = false") + 1
        with pytest.raises(ConfigError, match=rf":{line}: dataset.synthetic = false contradicts"):
            parse_config_text("\n".join(lines) + "\n")

    def test_split_unseen_list(self):
        cfg = parse_config_text(MINIMAL + "split.unseen = 8,9\n")
        assert cfg.split_unseen == (8, 9)

    def test_bad_split_unseen_reports_line(self):
        with pytest.raises(ConfigError, match=":5: bad value for split.unseen"):
            parse_config_text(MINIMAL + "split.unseen = 8,x\n")

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_endpoint_port_out_of_range(self, port):
        with pytest.raises(ConfigError, match=":5: bad value for endpoint: port must be in 0..65535"):
            parse_config_text(MINIMAL + f"endpoint = 127.0.0.1:{port}\n")

    @pytest.mark.parametrize("port", [0, 65535])
    def test_endpoint_port_bounds_accepted(self, port):
        assert parse_config_text(MINIMAL + f"endpoint = 127.0.0.1:{port}\n").endpoint == ("127.0.0.1", port)

    @pytest.mark.parametrize("line", ["teacher.hidden = 0,64", "teacher.hidden = 64,-1", "generator.hidden = 0"])
    def test_hidden_sizes_below_one_rejected(self, line):
        with pytest.raises(ConfigError, match="hidden layer sizes must be >= 1"):
            parse_config_text(MINIMAL + line + "\n")

    def test_scenario_validation(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config_text("dataset.synthetic = true\nscenario = gray\nteacher_mode = transductive\n")


class TestSplitUnseen:
    # the default synthetic spec has 10 classes, 8 of them seen
    @pytest.mark.parametrize(
        "lines",
        [
            "split.unseen = 4\n",
            "dataset.synthetic.seen = 5\nsplit.unseen = 8,9\n",
            "split.unseen = 9,9\n",
        ],
    )
    def test_disagreeing_with_the_synthetic_spec_is_an_error(self, lines):
        with pytest.raises(ConfigError, match="split.unseen gives .* dataset.synthetic.classes - dataset.synthetic.seen"):
            parse_config_text(MINIMAL + lines)

    @pytest.mark.parametrize(
        "lines,unseen",
        [
            ("split.unseen = 2\n", 2),
            ("split.unseen = 8,9\n", (8, 9)),
            ("dataset.synthetic.seen = 5\nsplit.unseen = 5\n", 5),
            ("dataset.synthetic.seen = 7\nsplit.unseen = 0,4,9\n", (0, 4, 9)),
        ],
    )
    def test_agreeing_values_parse(self, lines, unseen):
        assert parse_config_text(MINIMAL + lines).split_unseen == unseen

    @pytest.mark.parametrize(
        "source,ids,message",
        UNSEEN_ID_ERRORS,
        ids=[("csv-" if src == FILE_SOURCE else "") + f"{ids}-{msg}" for src, ids, msg in UNSEEN_ID_ERRORS],
    )
    def test_ids_out_of_range_or_repeated_are_an_error(self, source, ids, message):
        # each synthetic list names 2 distinct ids, as classes - seen asks, so only the ids themselves are wrong;
        # a feature file's class count is known only at run time, so its lists are checked for all but the top id
        with pytest.raises(ConfigError, match=message):
            parse_config_text(source + f"split.unseen = {ids}\n")

    def test_built_config_is_checked_too(self):
        validate(ExperimentConfig(synthetic=SyntheticSpec(n_classes=6, seen_count=2), split_unseen=4))
        with pytest.raises(ConfigError, match="split.unseen gives 2 unseen classes, .* gives 4"):
            validate(ExperimentConfig(synthetic=SyntheticSpec(n_classes=6, seen_count=2), split_unseen=2))

    def test_unset_is_left_out_of_the_emitted_config(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.split_unseen is None
        assert "split.unseen" not in emit_config(cfg)

    def test_unset_means_classes_minus_seen_or_two_for_feature_files(self):
        spec = SyntheticSpec(n_classes=7, seen_count=3, per_class=10)
        ds = make_synthetic(spec, seed=1)
        assert build_split(ExperimentConfig(synthetic=spec), ds).unseen_classes.size == 4
        assert build_split(ExperimentConfig(dataset_path="x.azb"), ds).unseen_classes.size == 2


class TestCanonicalEmission:
    def test_round_trip_equality(self):
        cfg = parse_config_text(
            MINIMAL
            + "alpha = 1.5\nnoise.dim = 24\nteacher.hidden = 64,32\nsplit.unseen = 2\n"
            + "train.verify = false\nseed = 99\nregularizer = mmd\n"
        )
        again = parse_config_text(emit_config(cfg))
        assert again == cfg

    def test_round_trip_with_endpoint_and_lists(self):
        cfg = parse_config_text(
            MINIMAL + "channel = tcp\nendpoint = 10.0.0.1:4242\nsplit.unseen = 8,9\n"
        )
        assert parse_config_text(emit_config(cfg)) == cfg

    def test_file_backed_emission(self):
        cfg = ExperimentConfig(dataset_path="/d/x.csv", dataset_format="csv", split_unseen=(3, 7), data_seed=4)
        assert emit_config(cfg) == (
            "# canonical experiment config\nscenario = white\nteacher_mode = transductive\n"
            "dataset.path = /d/x.csv\ndataset.format = csv\nsplit.unseen = 3,7\nsplit.ratio = 0.8\n"
            "regularizer = kl\nalpha = 0.5\nnoise.dim = 20\ntrain.generator_epochs = 2000\n"
            "train.student_epochs = 2000\ntrain.batch_size = 64\ntrain.per_class = 400\ntrain.lr = 1e-05\n"
            "train.min_verified = 1\ntrain.retry_cap = 2\ntrain.verify = true\nteacher.epochs = 200\n"
            "teacher.batch_size = 64\nteacher.hidden = 1024,512\ngenerator.hidden = 4096\nchannel = inproc\n"
            "out = azsl_out\nseed = 1\ndata_seed = 4\n"
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(ExperimentConfig(dataset_path="/d/x.csv", split_unseen=(3,)), id="file"),
            pytest.param(
                ExperimentConfig(synthetic=SyntheticSpec(n_classes=4, seen_count=3), split_unseen=(2,)), id="synthetic"
            ),
        ],
    )
    def test_one_unseen_id_round_trips_as_a_list(self, cfg):
        # a bare "3" would parse back as a count of three classes drawn at random
        text = emit_config(cfg)
        assert f"split.unseen = {cfg.split_unseen[0]},\n" in text
        assert parse_config_text(text) == cfg

    def test_emission_is_stable(self):
        cfg = parse_config_text(MINIMAL)
        assert emit_config(cfg) == emit_config(parse_config_text(emit_config(cfg)))
