"""Unit tests for merging per-worker flight-recorder banks."""

import json


class TestSeriesMerge:
    def _bank(self, points):
        from repro.obs import SeriesBank

        bank = SeriesBank()
        for name, t, v in points:
            bank.record(name, t, v)
        return bank

    def test_dicts_interleave_by_time(self):
        from repro.parallel import merge_series_dicts

        a = self._bank([("x", 0.0, 1.0), ("x", 2.0, 1.0)])
        b = self._bank([("x", 1.0, 2.0), ("y", 0.0, 9.0)])
        merged = merge_series_dicts([a.as_dict(), b.as_dict()])
        assert merged.get("x").times().tolist() == [0.0, 1.0, 2.0]
        assert merged.get("x").values().tolist() == [1.0, 2.0, 1.0]
        assert merged.get("y").last() == 9.0

    def test_files_round_trip(self, tmp_path):
        from repro.obs import SeriesBank
        from repro.parallel import merge_series_files

        paths = []
        for i in range(2):
            bank = self._bank([("x", float(i), float(i * 10))])
            p = tmp_path / f"series-{i}.json"
            p.write_text(json.dumps(bank.as_dict()))
            paths.append(p)
        out = tmp_path / "series.json"
        merged = merge_series_files(paths, out=out)
        assert merged.get("x").values().tolist() == [0.0, 10.0]
        restored = SeriesBank.from_dict(json.loads(out.read_text()))
        assert restored.get("x").values().tolist() == [0.0, 10.0]
