import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from srloop import data
from srloop.data import (
    Dataset,
    MalformedCsvError,
    NonNumericCellError,
    UnknownDatasetError,
    builtin_ids,
    dataset_info,
    load_builtin,
    load_csv,
    reference_models,
)
from srloop.engine import resolve_operator_set
from srloop.expressions import Dialect, render
from srloop.parsing import parse

ALL_IDS = ["bode", "dual_site_langmuir", "hubble", "kepler", "langmuir", "nikuradse"]


class TestBuiltin:
    def test_ids(self):
        assert builtin_ids() == ALL_IDS

    def test_kepler_context(self):
        d = load_builtin("kepler")
        assert "semi-major axis" in d.context
        assert "period in days" in d.context

    def test_nikuradse_size(self):
        d = load_builtin("nikuradse")
        assert d.n_rows > 350
        assert d.variables == ("x1", "x2")
        assert d.target is None

    def test_hubble_target(self):
        d = load_builtin("hubble")
        assert d.target.root == parse("c1*x1", Dialect.INFIX, ["x1"]).root

    def test_every_context_bundled(self):
        for dataset_id in ALL_IDS:
            assert load_builtin(dataset_id).context

    def test_unknown_id(self):
        with pytest.raises(UnknownDatasetError):
            load_builtin("gravity")

    def test_checksums_match_files(self):
        for dataset_id in ALL_IDS:
            info = dataset_info(dataset_id)
            raw = (resources.files("srloop.datasets") / info["file"]).read_bytes()
            assert hashlib.sha256(raw).hexdigest() == info["sha256"]
            assert raw.decode().count("\n") - 1 == info["rows"]

    def test_targets_validate_against_easy_search(self):
        for dataset_id in ALL_IDS:
            d = load_builtin(dataset_id)
            if d.target is None:
                continue
            opset = resolve_operator_set("easy", d)
            assert not opset.violations(d.target), (dataset_id, render(d.target))

    def test_rows_are_read_only(self):
        d = load_builtin("langmuir")
        with pytest.raises(ValueError):
            d.X[0, 0] = 99.0

    def test_dual_site_target_form(self):
        d = load_builtin("dual_site_langmuir")
        assert render(d.target) == "c1*x1/(c2+x1)+c3*x1/(c4+x1)"

    def test_kepler_exponent_is_literal(self):
        assert render(load_builtin("kepler").target) == "c1*x1**1.5"


class TestReferenceModels:
    def test_external_anchors(self):
        refs = reference_models("nikuradse")
        rows = {e["name"]: e for e in refs["external"]}
        assert rows["BMS"]["mae"] == 0.00392 and rows["BMS"]["complexity"] == 37
        assert rows["EFS"]["mae"] == 0.00941
        assert rows["GPT-4 best"]["mae"] == 0.01086 and rows["GPT-4 best"]["complexity"] == 41
        assert rows["GPT-4o best"]["mae"] == 0.00924 and rows["GPT-4o best"]["complexity"] == 27

    def test_prompt_table(self):
        table = {e["run"]: e for e in reference_models()["prompt_table"]}
        assert table["P1S1"]["mae"] == 0.02270419 and table["P1S1"]["complexity"] == 13
        assert len(table) == 12

    def test_unknown(self):
        with pytest.raises(UnknownDatasetError):
            reference_models("hubble")


class TestManifest:
    def test_bundle_resolved_once(self):
        assert data._bundle() is data._bundle()

    def test_read_once(self):
        dataset_info("bode")
        before = data._read_text.cache_info().misses
        for name in ALL_IDS:
            dataset_info(name)
        reference_models()
        assert builtin_ids() == ALL_IDS
        assert data._read_text.cache_info().misses == before

    def test_callers_cannot_change_it(self):
        info = dataset_info("bode")
        info["variables"].append("x2")
        info["target"] = None
        reference_models()["external"].clear()
        assert dataset_info("bode")["variables"] == ["x1"]
        assert dataset_info("bode")["target"] == "c1*exp(c2*x1)+c3"
        assert reference_models()["external"]

    def test_a_swapped_bundle_is_read(self, tmp_path, monkeypatch):
        bode = dict(dataset_info("bode"), sha256="0" * 64)
        manifest = {"datasets": {"swapped": bode}, "reference_models": {}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr(data, "_bundle", lambda: tmp_path)
        assert builtin_ids() == ["swapped"]
        assert dataset_info("swapped")["sha256"] == "0" * 64
        monkeypatch.undo()
        assert builtin_ids() == ALL_IDS


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "mine.csv"
        path.write_text("x1,y\n1,2\n2,4\n3,6\n")
        d = load_csv(path)
        assert d.id == "mine"
        assert d.n_rows == 3
        assert d.target is None and d.context is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedCsvError):
            load_csv(tmp_path / "absent.csv")

    def test_sidecar_context(self, tmp_path):
        path = tmp_path / "mine.csv"
        path.write_text("x1,y\n1,2\n")
        (tmp_path / "mine.context.txt").write_text("pressure vs loading\n")
        assert load_csv(path).context == "pressure vs loading"

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1,2\n2,oops\n")
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path)
        assert err.value.row == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1,2\n3\n")
        with pytest.raises(MalformedCsvError):
            load_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1\n")
        with pytest.raises(MalformedCsvError):
            load_csv(path)

    def test_input_columns_must_follow_naming_convention(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pressure,y\n1,2\n")
        with pytest.raises(MalformedCsvError) as err:
            load_csv(path)
        assert "x1" in str(err.value)


class TestDatasetValidation:
    def test_shape_mismatch(self):
        with pytest.raises(MalformedCsvError):
            Dataset(id="t", variables=("x1",), X=np.ones((3, 2)), y=np.ones(3))

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedCsvError):
            Dataset(id="t", variables=("x1",), X=np.array([[np.inf]]), y=np.ones(1))
