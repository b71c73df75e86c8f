"""Config-layer tests: every shipped preset parses, strays are rejected."""

import pytest

from quantrate import InvalidSpec, TrainConfig, load_preset, preset_names
from quantrate.config import (
    concentration_spec,
    experiment_spec,
    train_config,
    train_spec,
)


def test_every_preset_parses_without_loading_data():
    for name in preset_names():
        config = load_preset(name)
        if config["kind"] in ("rate_table", "recall_point"):
            spec = experiment_spec(config)
            assert spec.name == name
            assert spec.levels and spec.weight_decays
        else:
            kind, args = concentration_spec(config, None)
            assert kind == config["kind"]
            assert args["seed"] == config["seed"]


def test_a_stray_key_in_a_preset_fails_the_parse():
    config = load_preset("ionosphere")
    config["data"]["delimitter"] = ","
    with pytest.raises(InvalidSpec, match="unknown keys"):
        experiment_spec(config)
    # the logistic fit has no restarts or minibatches, and the runner
    # sets every model's weight decay from the grid
    for block, key, value in (
        ("logistic", "restarts", 3),
        ("logistic", "weight_decay", 0.1),
        ("logistic", "batch_size", 32),
        ("logistic", "constraint_batch_size", 16),
        ("train", "weight_decay", 0.1),
    ):
        config = load_preset("synthetic")
        config[block][key] = value
        with pytest.raises(InvalidSpec, match="unknown keys"):
            experiment_spec(config)


def test_missing_optional_keys_take_the_record_defaults():
    parsed = train_config({"learning_rate": 0.1, "steps": 4}, seed=2)
    assert parsed == TrainConfig(learning_rate=0.1, steps=4, seed=2)
    assert parsed.eval_every == 1


def test_train_spec_seed_override_and_missing_seed():
    config = {
        "loss": {
            "objective": "p_at_r",
            "constraint": {"subset": "positives", "direction": "at_least",
                           "target": 0.8},
            "estimator": {"kind": "point"},
        },
        "train": {"learning_rate": 0.1, "steps": 4, "seed": 9},
    }
    assert train_spec(config, None)[1].seed == 9
    assert train_spec(config, 5)[1].seed == 5
    del config["train"]["seed"]
    with pytest.raises(InvalidSpec, match="needs a seed"):
        train_spec(config, None)


def test_a_kind_of_the_wrong_type_is_an_unknown_kind():
    for kind in (["x"], {"x": 1}, None, 7):
        with pytest.raises(InvalidSpec, match="unknown concentration kind"):
            concentration_spec({"kind": kind}, None)
        with pytest.raises(InvalidSpec, match="unknown experiment kind"):
            experiment_spec({"kind": kind})
