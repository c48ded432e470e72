import numpy as np

from vibrosense.report import (
    canonical_json,
    compare_reports,
    config_fingerprint,
    data_fingerprint,
    format_table,
    load_json_report,
    write_json_report,
)


class TestFingerprints:
    def test_config_fingerprint_key_order_invariant(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    def test_config_fingerprint_sensitive(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_data_fingerprint(self):
        a = np.array([1.0, 2.0, 3.0])
        assert data_fingerprint(a) == data_fingerprint(a.copy())
        assert data_fingerprint(a) != data_fingerprint(a + 1e-12)


class TestJsonReports:
    def test_write_load_round_trip(self, tmp_path):
        doc = {"b": 2, "a": {"x": 1.5}}
        path = tmp_path / "r.json"
        write_json_report(doc, path)
        assert load_json_report(path) == doc

    def test_stable_bytes(self, tmp_path):
        doc = {"b": 2, "a": 1}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_json_report(doc, p1)
        write_json_report({"a": 1, "b": 2}, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_canonical_json_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestTable:
    def test_alignment(self):
        text = format_table(["model", "rmse"], [["ar", 0.5], ["seasonal", 1.25]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # all rows equal width
        assert "0.5000" in lines[2]


class TestCompare:
    def test_deltas(self):
        a = {"rmse": 1.0, "nested": {"f1": 0.5}, "name": "x"}
        b = {"rmse": 1.5, "nested": {"f1": 0.5}, "name": "y"}
        out = compare_reports(a, b)
        assert any("rmse" in line and "+0.5" in line for line in out)
        assert not any("f1" in line for line in out)

    def test_identical(self):
        doc = {"a": 1.0}
        assert compare_reports(doc, doc) == []
