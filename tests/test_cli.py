"""Unit tests for the command-line interface."""

import random

import pytest

from repro.cli import main
from repro.datasets.io import load_stream, write_csv_stream
from repro.streams.objects import SpatialObject


def _numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


#: ``generate`` needs the optional numpy dependency; ``run`` must not.
needs_numpy = pytest.mark.skipif(
    not _numpy_importable(),
    reason="the generate command needs numpy (pip install .[fast])",
)


class TestGenerateCommand:
    @needs_numpy
    def test_generate_csv(self, tmp_path, capsys):
        out = tmp_path / "taxi.csv"
        code = main(
            ["generate", "--profile", "taxi", "--objects", "200", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        stream = load_stream(out)
        assert len(stream) >= 200
        captured = capsys.readouterr()
        assert "wrote" in captured.out

    @needs_numpy
    def test_generate_jsonl_without_bursts(self, tmp_path):
        out = tmp_path / "uk.jsonl"
        code = main(
            [
                "generate",
                "--profile",
                "uk",
                "--objects",
                "150",
                "--no-bursts",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(load_stream(out)) == 150

    def test_generate_rejects_unknown_extension(self, tmp_path, capsys):
        out = tmp_path / "stream.xyz"
        code = main(["generate", "--objects", "10", "--out", str(out)])
        assert code == 1
        assert "must end in" in capsys.readouterr().err

    def test_generate_unknown_profile_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--profile", "mars", "--out", str(tmp_path / "x.csv")])


class TestRunCommand:
    def _make_stream(self, tmp_path):
        # Built directly (not via the generate command) so the run-command
        # tests also cover the numpy-free install.
        out = tmp_path / "stream.csv"
        rng = random.Random(20180416)
        write_csv_stream(
            out,
            [
                SpatialObject(
                    x=rng.uniform(0.0, 0.1),
                    y=rng.uniform(0.0, 0.1),
                    timestamp=float(index * 10),
                    weight=rng.uniform(0.5, 5.0),
                    object_id=index,
                )
                for index in range(300)
            ],
        )
        return out

    def test_run_prints_reports(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "run",
                str(stream_path),
                "--algorithm",
                "gaps",
                "--rect",
                "0.01",
                "0.01",
                "--window",
                "300",
                "--report-every",
                "100",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "score=" in captured.out
        assert "events" in captured.err

    def test_run_top_k(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "run",
                str(stream_path),
                "--algorithm",
                "kgaps",
                "--rect",
                "0.01",
                "0.01",
                "--window",
                "300",
                "--k",
                "3",
                "--report-every",
                "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The final report lists up to three regions separated by semicolons.
        assert out.strip().splitlines()[-1].count("score=") >= 1

    def test_run_empty_stream_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,x,y\n")
        code = main(
            ["run", str(empty), "--rect", "1", "1", "--window", "10"]
        )
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_run_requires_rect_and_window(self, tmp_path):
        stream_path = self._make_stream(tmp_path)
        with pytest.raises(SystemExit):
            main(["run", str(stream_path)])


class TestChunkSizeFlag:
    def _make_stream(self, tmp_path):
        return TestRunCommand._make_stream(self, tmp_path)

    def test_run_with_explicit_chunk_size(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        code = main(
            [
                "run",
                str(stream_path),
                "--algorithm",
                "ccs",
                "--rect",
                "0.01",
                "0.01",
                "--window",
                "300",
                "--report-every",
                "100",
                "--chunk-size",
                "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score=" in out
        # Reports still come once per reporting interval, not per chunk.
        assert out.count("objects,") == 3

    def test_chunk_size_must_be_positive(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        code = main(
            [
                "run",
                str(stream_path),
                "--rect",
                "0.01",
                "0.01",
                "--window",
                "300",
                "--chunk-size",
                "0",
            ]
        )
        assert code == 2
        assert "chunk-size" in capsys.readouterr().err

    def test_default_chunking_matches_explicit_reporting_interval(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        args = [
            "run",
            str(stream_path),
            "--algorithm",
            "gaps",
            "--rect",
            "0.01",
            "0.01",
            "--window",
            "300",
            "--report-every",
            "100",
        ]
        assert main(args) == 0
        default_out = capsys.readouterr().out
        assert main(args + ["--chunk-size", "100"]) == 0
        explicit_out = capsys.readouterr().out
        assert default_out == explicit_out

    def test_chunk_size_exceeding_report_interval_rejected(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        code = main(
            [
                "run",
                str(stream_path),
                "--rect",
                "0.01",
                "0.01",
                "--window",
                "300",
                "--report-every",
                "100",
                "--chunk-size",
                "500",
            ]
        )
        assert code == 2
        assert "must not exceed" in capsys.readouterr().err


class TestServeCommand:
    def _make_stream(self, tmp_path):
        out = tmp_path / "stream.csv"
        rng = random.Random(7)
        keywords = ("concert", "parade")
        write_csv_stream(
            out,
            [
                SpatialObject(
                    x=rng.uniform(0.0, 5.0),
                    y=rng.uniform(0.0, 5.0),
                    timestamp=float(index),
                    weight=rng.uniform(0.5, 5.0),
                    object_id=index,
                    attributes={"keywords": (keywords[index % 2],)},
                )
                for index in range(300)
            ],
        )
        return out

    def _make_queries(self, tmp_path):
        import json

        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "id": "concerts",
                        "keyword": "concert",
                        "rect": [1.0, 1.0],
                        "window": 30,
                        "algorithm": "ccs",
                        "backend": "python",
                    },
                    {"id": "all", "rect": [1.5, 1.5], "window": 60, "algorithm": "gaps"},
                ]
            )
        )
        return path

    def test_serve_prints_per_query_reports(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                str(self._make_stream(tmp_path)),
                "--queries",
                str(self._make_queries(tmp_path)),
                "--shards",
                "2",
                "--chunk-size",
                "50",
                "--report-every",
                "100",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "concerts:" in captured.out
        assert "all:" in captured.out
        assert "object-query pairs" in captured.err
        assert "routed" in captured.err

    def test_serve_process_executor_matches_serial(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        queries_path = self._make_queries(tmp_path)
        outputs = []
        for executor in ("serial", "process"):
            code = main(
                [
                    "serve",
                    str(stream_path),
                    "--queries",
                    str(queries_path),
                    "--executor",
                    executor,
                    "--shards",
                    "2",
                    "--chunk-size",
                    "64",
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_serve_rejects_the_removed_thread_executor(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        queries_path = self._make_queries(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["serve", str(stream_path), "--queries", str(queries_path),
                 "--executor", "thread"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in ("serial", "process", "remote"))

    def test_serve_rejects_bad_usage(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        queries_path = self._make_queries(tmp_path)
        base = ["serve", str(stream_path), "--queries", str(queries_path)]
        assert main(base + ["--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(base + ["--chunk-size", "0"]) == 2
        assert "--chunk-size" in capsys.readouterr().err
        assert main(base + ["--report-every", "0"]) == 2
        assert "--report-every" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(base + ["--executor", "gpu"])

    def test_serve_missing_or_invalid_queries_file(self, tmp_path, capsys):
        stream_path = self._make_stream(tmp_path)
        code = main(
            ["serve", str(stream_path), "--queries", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "failed to load" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["serve", str(stream_path), "--queries", str(bad)]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_serve_empty_stream_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        write_csv_stream(empty, [])
        code = main(
            ["serve", str(empty), "--queries", str(self._make_queries(tmp_path))]
        )
        assert code == 1
        assert "stream is empty" in capsys.readouterr().err


class TestTraceCommand:
    _make_stream = TestServeCommand._make_stream
    _make_queries = TestServeCommand._make_queries

    def _trace(self, tmp_path, *flags):
        return main(
            [
                "trace",
                str(self._make_stream(tmp_path)),
                "--queries",
                str(self._make_queries(tmp_path)),
                "--chunk-size",
                "50",
                "--out",
                str(tmp_path / "trace.json"),
                *flags,
            ]
        )

    def test_trace_exports_a_lane_per_shard_and_prints_the_stage_table(
        self, tmp_path, capsys
    ):
        import json

        assert self._trace(tmp_path, "--shards", "2") == 0
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        lanes = {
            event["args"]["name"]: event["tid"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        spans = [event for event in events if event["ph"] == "X"]
        for shard in ("shard0", "shard1"):
            assert any(span["tid"] == lanes[shard] for span in spans), shard
        captured = capsys.readouterr()
        assert captured.out.split()[:2] == ["stage", "count"]
        assert "bus.publish" in captured.out
        assert f"{len(spans)} spans" in captured.err

    @pytest.mark.parametrize("flag", ["--shards", "--ring-size"])
    def test_trace_rejects_a_zero_count(self, tmp_path, capsys, flag):
        assert self._trace(tmp_path, flag, "0") == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "trace.json").exists()
