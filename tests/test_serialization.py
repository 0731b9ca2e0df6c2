import json

import numpy as np
import pytest

from conftest import random_config, random_hermitian, spin_config
from weakprobe import (
    DensityValidationError,
    HermiticityViolation,
    OrthogonalPostselection,
    config_from_json,
    config_to_json,
    operator_to_json,
)
from weakprobe.serialization import _stack_from_json


def with_rho_in(op) -> dict:
    """A valid config document with ``op`` under ``rho_in``, the CLI's route."""
    return {**config_to_json(spin_config()), "rho_in": op}


class TestOperatorFormat:
    def test_layout(self):
        doc = operator_to_json(np.array([[1, 2j], [-2j, 3]]))
        assert doc == {
            "dim": 2,
            "re": [[1.0, 0.0], [0.0, 3.0]],
            "im": [[0.0, 2.0], [-2.0, 0.0]],
        }

    def test_row_major_orientation(self):
        doc = operator_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert doc["re"][0] == [1.0, 2.0]  # first row, not first column

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 5):
            m = random_hermitian(rng, d)
            doc = {**config_to_json(random_config(rng, d)), "weak_observable": operator_to_json(m)}
            back = config_from_json(json.loads(json.dumps(doc)))
            assert np.array_equal(back.weak_observable, m)  # shortest-repr floats are lossless

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="rho_in: missing"):
            config_from_json(with_rho_in({"dim": 2, "re": [[1, 0], [0, 1]]}))

    def test_bad_dim(self):
        with pytest.raises(ValueError, match="rho_in: dim"):
            config_from_json(with_rho_in({"dim": 0, "re": [], "im": []}))
        with pytest.raises(ValueError, match="rho_in: dim"):
            config_from_json(with_rho_in({"dim": "2", "re": [[1]], "im": [[0]]}))

    def test_bool_dim_rejected(self):
        # JSON true used to pass as dim 1
        with pytest.raises(ValueError, match="dim must be a positive integer, got True"):
            config_from_json(with_rho_in({"dim": True, "re": [[1.0]], "im": [[0.0]]}))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rho_in: re/im shape"):
            config_from_json(with_rho_in({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]}))

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="rho_in: expected an object"):
            config_from_json(with_rho_in([[1, 0], [0, 1]]))


class TestConfigFormat:
    def test_round_trip_preserves_everything(self):
        cfg = spin_config(a=0.6, b=0.8, dtm=1.5, dtc=0.25, hbar=2.0)
        back = config_from_json(json.loads(json.dumps(config_to_json(cfg))))
        assert np.array_equal(back.rho_in.mat, cfg.rho_in.mat)
        assert np.array_equal(back.rho_fin.mat, cfg.rho_fin.mat)
        assert np.array_equal(back.strong_projector.mat, cfg.strong_projector.mat)
        assert np.array_equal(back.weak_observable, cfg.weak_observable)
        assert back.delta_t_m == cfg.delta_t_m
        assert back.delta_t_c == cfg.delta_t_c
        assert back.hbar == cfg.hbar

    def test_round_trip_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cfg = random_config(rng, d=3)
            back = config_from_json(json.loads(json.dumps(config_to_json(cfg))))
            assert np.array_equal(back.rho_in.mat, cfg.rho_in.mat)
            assert np.array_equal(back.weak_observable, cfg.weak_observable)

    def test_missing_key(self):
        doc = config_to_json(spin_config())
        del doc["delta_t_m"]
        with pytest.raises(ValueError, match="missing"):
            config_from_json(doc)

    def test_scalar_type_checked(self):
        doc = config_to_json(spin_config())
        doc["hbar"] = "1.0"
        with pytest.raises(ValueError, match="number"):
            config_from_json(doc)
        doc["hbar"] = True
        with pytest.raises(ValueError, match="number"):
            config_from_json(doc)

    def test_state_invariants_enforced(self):
        doc = config_to_json(spin_config())
        doc["rho_in"]["re"][0][0] = 5.0  # trace now wrong
        with pytest.raises(DensityValidationError):
            config_from_json(doc)

    def test_projector_invariants_enforced(self):
        doc = config_to_json(spin_config())
        doc["strong_projector"]["re"] = [[0.5, 0.0], [0.0, 0.0]]
        with pytest.raises(Exception, match="idempotent"):
            config_from_json(doc)

    def test_observable_hermiticity_enforced(self):
        doc = config_to_json(spin_config())
        doc["weak_observable"]["im"][0][0] = 1.0
        with pytest.raises(HermiticityViolation):
            config_from_json(doc)

    def test_protocol_constraints_enforced(self):
        # a parseable document can still describe an unusable protocol
        doc = config_to_json(spin_config())
        doc["rho_in"]["re"] = [[0.0, 0.0], [0.0, 1.0]]
        doc["rho_in"]["im"] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(OrthogonalPostselection):
            config_from_json(doc)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="object"):
            config_from_json("{}")

    @pytest.mark.parametrize("key", ["rho_in", "weak_observable"])
    def test_bool_dim_rejected(self, key):
        # four 1x1 operators with JSON true as dim used to make a valid config
        op = {"dim": 1, "re": [[1.0]], "im": [[0.0]]}
        doc = {k: dict(op) for k in ("rho_in", "rho_fin", "strong_projector", "weak_observable")}
        doc.update(delta_t_m=1.0, delta_t_c=0.5, hbar=1.0)
        config_from_json(doc)
        doc[key]["dim"] = True
        with pytest.raises(ValueError, match=f"{key}: dim must be a positive integer, got True"):
            config_from_json(doc)

    @pytest.mark.parametrize(
        "entries, bad",
        [
            ({"rho_in.im": [["0", "0"], ["0", "0"]]}, "rho_in"),
            ({"strong_projector.re": [[True, 0], [0, 0]]}, "strong_projector"),
            # the first bad operator in key order is the one reported
            (
                {"weak_observable.im": [["0", 0], [0, 0]], "rho_fin.im": [[0, False], [False, 0]]},
                "rho_fin",
            ),
        ],
        ids=["string", "true", "first in key order"],
    )
    def test_entries_must_be_json_numbers(self, entries, bad):
        # numpy reads "0" and true as floats, so each document used to parse
        # as the valid config it spells
        doc = config_to_json(spin_config(a=0.6, b=0.8))
        for path, value in entries.items():
            key, part = path.split(".")
            doc[key][part] = value
        assert _stack_from_json(doc) is None
        with pytest.raises(ValueError, match=f"^{bad}: entries must be JSON numbers$"):
            config_from_json(doc)
