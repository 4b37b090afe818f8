import numpy as np
import pytest

from fedpod.cli import read_model_bin, write_model_bin
from fedpod.errors import ParseError
from fedpod.params import ModelParams


def test_model_bin_round_trips(tmp_path):
    model = ModelParams(np.array([0.5, -1.25, 3e-9]))
    write_model_bin(model, tmp_path / "model.bin")
    assert read_model_bin(tmp_path / "model.bin").values.tobytes() == model.values.tobytes()


def test_model_bin_with_partial_value_is_a_parse_error(tmp_path):
    path = tmp_path / "model.bin"
    write_model_bin(ModelParams(np.array([1.0, 2.0])), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ParseError, match="not a whole number"):
        read_model_bin(path)


def test_model_bin_with_missing_values_is_a_parse_error(tmp_path):
    path = tmp_path / "model.bin"
    write_model_bin(ModelParams(np.array([1.0, 2.0])), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParseError, match="header says 2 values, found 1"):
        read_model_bin(path)
