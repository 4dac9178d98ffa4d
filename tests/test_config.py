import re
import warnings
from dataclasses import replace

import pytest
import yaml

from pdalab.cli import _load_data
from pdalab.cli import main as cli_main
from pdalab.config import (
    ArchConfig,
    CsvDataConfig,
    RunConfig,
    dump_config,
    load_config,
)
from pdalab.data import SyntheticSpec
from pdalab.trainer import PRESETS, Schedule, VariantFlags


class TestParsing:
    def test_empty_config_gets_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.seed == 0
        assert cfg.variant == "san_pp"
        assert isinstance(cfg.data, SyntheticSpec)
        assert cfg.schedule == Schedule()
        assert cfg.arch == ArchConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown keys \['seeed'\]; allowed: "):
            RunConfig.from_dict({"seeed": 3})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match=r"^schedule: unknown keys \['lr'\]"):
            RunConfig.from_dict({"schedule": {"lr": 0.1}})
        with pytest.raises(ValueError, match=r"^data.synthetic: unknown keys \['n_clusters'\]"):
            RunConfig.from_dict({"data": {"synthetic": {"n_clusters": 3}}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="^seed: expected int, got str$"):
            RunConfig.from_dict({"seed": "zero"})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="^variant: unknown name 'sann'; known: "):
            RunConfig.from_dict({"variant": "sann"})

    def test_explicit_variant_flags(self):
        cfg = RunConfig.from_dict({"variant": {"instance_sel": True,
                                               "adversary": "multi"}})
        assert cfg.flags() == VariantFlags(instance_sel=True, adversary="multi")
        assert RunConfig.from_dict({"variant": "dann"}).flags() == PRESETS["dann"]

    def test_invalid_flag_combo_rejected(self):
        with pytest.raises(ValueError,
                           match="^variant: selection/entropy gates require an adversary$"):
            RunConfig.from_dict({"variant": {"class_sel": True, "adversary": "none"}})

    def test_both_data_kinds_rejected(self):
        with pytest.raises(ValueError, match="^data: specify either synthetic or csv, not both$"):
            RunConfig.from_dict({"data": {"synthetic": {},
                                          "csv": {"source": "a", "target": "b",
                                                  "metadata": "c"}}})

    def test_csv_data_requires_paths(self):
        with pytest.raises(ValueError, match="^data.csv.metadata: a value is required$"):
            RunConfig.from_dict({"data": {"csv": {"source": "a", "target": "b"}}})
        cfg = RunConfig.from_dict({"data": {"csv": {"source": "a", "target": "b",
                                                    "metadata": "m"}}})
        assert isinstance(cfg.data, CsvDataConfig)

    def test_invalid_schedule_value_rejected(self):
        with pytest.raises(ValueError, match=r"^schedule: momentum must lie in \[0, 1\)$"):
            RunConfig.from_dict({"schedule": {"momentum": 1.5}})

    def test_int_elements_widen_to_float(self):
        data = RunConfig.from_dict({"data": {"synthetic": {"target_shift": [1, 1]}}}).data
        assert data.target_shift == (1.0, 1.0)
        assert all(type(v) is float for v in data.target_shift)

    def test_defaults_match_the_specs(self):
        assert RunConfig.from_dict({}).data == SyntheticSpec()

    @pytest.mark.parametrize("arch", [{"hidden": [0]}, {"disc_hidden": [4, 0]}])
    def test_zero_width_rejected_at_its_section(self, arch):
        with pytest.raises(ValueError, match="^arch: hidden widths must be positive$"):
            RunConfig.from_dict({"arch": arch})


# Values that used to train silently wrong or end in a traceback.
MISTYPED = [
    ({"variant": {"instance_sel": "no", "adversary": "multi"}}, "variant.instance_sel"),
    ({"data": {"synthetic": {"shared_classes": [0.7, 1, 2]}}},
     "data.synthetic.shared_classes[0]"),
    ({"arch": {"hidden": [16, "x"]}}, "arch.hidden[1]"),
    ({"arch": {"hidden": [16.5]}}, "arch.hidden[0]"),
    ({"data": {"synthetic": {"cluster_means": 5}}}, "data.synthetic.cluster_means"),
]


@pytest.mark.parametrize("raw, path", MISTYPED, ids=[p for _, p in MISTYPED])
def test_mistyped_value_is_rejected_at_its_key_path(raw, path, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: expected "):
        RunConfig.from_dict(raw)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {path}: expected ") and err.count("\n") == 1


NON_FINITE = [("schedule:\n  eta0: .inf\n", "schedule.eta0", "inf"),
              ("data:\n  synthetic:\n    cluster_std: .nan\n",
               "data.synthetic.cluster_std", "nan"),
              ("schedule:\n  alpha: -1" + "0" * 400 + "\n", "schedule.alpha", "-inf")]


@pytest.mark.parametrize("text, path, shown", NON_FINITE,
                         ids=["inf", "nan", "int_beyond_float_range"])
def test_non_finite_value_is_rejected_at_its_key_path(text, path, shown, tmp_path, capsys):
    message = f"{path}: expected a finite float, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig.from_dict(yaml.safe_load(text))
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("opener, closer", [("[", "]"), ("{a: ", "}")], ids=["list", "map"])
def test_flow_nesting_stops_past_100_levels(opener, closer, tmp_path):
    """YAML's scanner takes time quadratic in flow depth, so the loader stops
    it at a depth no config needs."""
    path = tmp_path / "c.yaml"
    path.write_text("seed: " + opener * 100 + "1" + closer * 100 + "\n")
    with pytest.raises(ValueError, match=": seed: expected int, got"):
        load_config(path)
    path.write_text("seed: " + opener * 101 + "1" + closer * 101 + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: nesting too deep$"):
        load_config(path)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        raw = {
            "seed": 7,
            "out_dir": "runs/x",
            "variant": "dann",
            "data": {"synthetic": {"samples_per_class": 20, "seed": 3}},
            "arch": {"hidden": [8, 8], "disc_hidden": [4]},
            "schedule": {"eta0": 0.1, "total_epochs": 12},
        }
        cfg = RunConfig.from_dict(raw)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_yaml_file_round_trip(self, tmp_path):
        cfg = RunConfig.from_dict({"seed": 3, "variant": {"adversary": "single"},
                                   "schedule": {"total_epochs": 2}})
        path = tmp_path / "config.yaml"
        path.write_text(dump_config(cfg), encoding="utf-8")
        again = load_config(path)
        assert again == cfg
        assert dump_config(again) == dump_config(cfg)

    def test_merged_keys_may_still_be_overridden(self, tmp_path):
        text = ("variant:\n  <<: {adversary: single, shared_trunk: false}\n"
                "  adversary: multi\n")
        path = tmp_path / "config.yaml"
        path.write_text(text)
        assert load_config(path) == RunConfig.from_dict(yaml.safe_load(text))
        assert load_config(path).flags() == VariantFlags(adversary="multi",
                                                         shared_trunk=False)

    def test_defaults_are_not_hidden_in_serialized_form(self):
        d = RunConfig.from_dict({}).to_dict()
        assert d["schedule"]["eta0"] == Schedule().eta0
        assert d["data"]["synthetic"]["cluster_std"] == 0.35
        assert d["arch"]["hidden"] == [16, 16]


class TestSeedDerivation:
    @staticmethod
    def data_seed(raw: dict, experiment_seed: int) -> int:
        """The data seed the CLI's data path resolves for a config."""
        cfg = replace(RunConfig.from_dict(raw), seed=experiment_seed)
        return _load_data(cfg)[4].seed

    def test_null_data_seed_follows_experiment_seed(self):
        assert self.data_seed({}, 1) == self.data_seed({}, 1)
        assert self.data_seed({}, 1) != self.data_seed({}, 2)

    def test_explicit_data_seed_pins_data(self):
        raw = {"data": {"synthetic": {"seed": 42}}}
        assert self.data_seed(raw, 1) == 42
        assert self.data_seed(raw, 99) == 42

    def test_invalid_synthetic_section_raises_config_error(self):
        with pytest.raises(ValueError, match="^data.synthetic: shared classes"):
            RunConfig.from_dict({"data": {"synthetic": {"shared_classes": [9]}}})
