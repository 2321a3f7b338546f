import json

import numpy as np
import pytest

from phdesc.errors import ShapeMismatch
from phdesc.fileio import (
    feedback_from_dict,
    feedback_to_dict,
    load_system,
    report_to_json,
    save_system,
    system_from_dict,
    system_to_dict,
)
from phdesc.generators import random_ph
from phdesc.model import validate


class TestSystemRoundTrip:
    def test_serialized_matrices_bit_exact(self, tmp_path):
        eps = np.finfo(float).eps
        for seed in range(10):
            sys = random_ph(5, 3, seed)
            path = tmp_path / f"sys{seed}.json"
            save_system(path, sys)
            loaded = load_system(path)
            for name in ("E", "J", "R", "G", "P"):
                assert np.array_equal(getattr(loaded, name), getattr(sys, name)), name
            # D itself is stored exactly; recombining the canonical split
            # reproduces it to within a rounding of the split components
            bound = 4 * eps * (np.abs(sys.S) + np.abs(sys.N))
            assert np.all(np.abs(loaded.D - sys.D) <= bound)
            assert validate(loaded).passed

    def test_split_canonical_on_load(self):
        sys = random_ph(3, 2, 1)
        doc = system_to_dict(sys)
        # corrupt the split by feeding an asymmetric D: the loader must
        # re-split into exactly symmetric and skew parts
        loaded = system_from_dict(doc)
        assert np.array_equal(loaded.S, loaded.S.T)
        assert np.array_equal(loaded.N, -loaded.N.T)
        assert np.allclose(loaded.S + loaded.N, sys.D, atol=0, rtol=0)

    def test_metadata_preserved(self, tmp_path):
        sys = random_ph(2, 1, 0)
        path = tmp_path / "sys.json"
        save_system(path, sys, metadata={"name": "demo", "seed": 0})
        doc = json.loads(path.read_text())
        assert doc["metadata"] == {"name": "demo", "seed": 0}

    def test_empty_input_dimension(self, tmp_path):
        sys = random_ph(3, 1, 2)
        doc = system_to_dict(sys)
        doc["m"] = 0
        doc["G"] = [[] for _ in range(3)]
        doc["P"] = [[] for _ in range(3)]
        doc["D"] = []
        loaded = system_from_dict(doc)
        assert loaded.m == 0 and loaded.G.shape == (3, 0)

    def test_transposed_matrix_refused(self):
        # n = 3, m = 2: a 2 x 3 G has the right entry count but not the shape.
        doc = system_to_dict(random_ph(3, 2, 0))
        doc["G"] = np.asarray(doc["G"]).T.tolist()
        with pytest.raises(ShapeMismatch):
            system_from_dict(doc)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("n"),
        lambda d: d.pop("E"),
        lambda d: d.update(E=[[1.0, 2.0]]),
        lambda d: d.update(n="x"),
        lambda d: d.update(J=[["a"]]),
    ])
    def test_malformed_documents(self, mutate):
        doc = system_to_dict(random_ph(1, 1, 0))
        mutate(doc)
        with pytest.raises((ValueError, KeyError)):
            system_from_dict(doc)

    @pytest.mark.parametrize("field, value", [("n", 2.9), ("m", 1.7), ("n", "2"), ("m", True)])
    def test_dimension_must_be_a_json_integer(self, field, value):
        # int() would read each of these as a valid dimension of this system.
        doc = system_to_dict(random_ph(2, 1, 0))
        doc[field] = value
        with pytest.raises(ValueError, match="integer fields 'n' and 'm'"):
            system_from_dict(doc)
        feedback = {"m": 1, "n": 2, "F": [[0.0, 0.0]], field: value}
        with pytest.raises(ValueError, match="integer fields 'm' and 'n'"):
            feedback_from_dict(feedback)


class TestFeedbackRoundTrip:
    def test_bit_exact(self):
        F = np.random.default_rng(0).normal(size=(2, 4)) * np.pi
        back = feedback_from_dict(feedback_to_dict(F))
        assert np.array_equal(back, F)

    def test_transposed_feedback_refused(self):
        F = np.arange(6.0).reshape(2, 3)
        with pytest.raises(ShapeMismatch):
            feedback_from_dict({"m": 2, "n": 3, "F": F.T.tolist()})
        with pytest.raises(ShapeMismatch):
            feedback_from_dict({"m": 2, "n": 3, "F": F.ravel().tolist()})

    def test_malformed(self):
        with pytest.raises(ValueError):
            feedback_from_dict({"m": 1, "n": 1})
        with pytest.raises(ValueError):
            feedback_from_dict({"m": 2, "n": 1, "F": [[1.0]]})


def test_non_finite_number_refused():
    # Infinity and NaN are not JSON (RFC 8259), so no report may carry them.
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            report_to_json({"margin": bad})
    assert report_to_json({"margin": None}) == '{\n  "margin": null\n}\n'
