"""Tests for the pace-est command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def simulated_fasta(tmp_path):
    fa = tmp_path / "bench.fa"
    truth = tmp_path / "truth.tsv"
    rc = main(
        [
            "simulate", str(fa),
            "--genes", "6", "--coverage", "9", "--read-length", "120",
            "--seed", "4", "--truth", str(truth),
        ]
    )
    assert rc == 0
    return fa, truth


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults_follow_paper(self):
        args = build_parser().parse_args(["cluster", "x.fa"])
        assert args.w == 8 and args.psi == 25 and args.batchsize == 60

    def test_machine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "x.fa", "--machine", "quantum"])


class TestSimulate:
    def test_writes_fasta_and_truth(self, simulated_fasta):
        fa, truth = simulated_fasta
        assert fa.read_text().startswith(">EST00000")
        lines = truth.read_text().strip().splitlines()
        assert all("\t" in line for line in lines)
        n_fasta = fa.read_text().count(">")
        assert len(lines) == n_fasta


class TestClusterCommand:
    def _cluster_args(self, fa, out):
        return [
            "cluster", str(fa), "-o", str(out),
            "--w", "6", "--psi", "15", "--min-overlap", "30", "--min-ratio", "0.8",
        ]

    def test_cluster_and_evaluate_roundtrip(self, simulated_fasta, tmp_path, capsys):
        fa, truth = simulated_fasta
        out = tmp_path / "clusters.tsv"
        assert main(self._cluster_args(fa, out)) == 0
        assert main(["evaluate", str(out), str(truth)]) == 0
        printed = capsys.readouterr().out
        assert "OQ=" in printed and "CC=" in printed
        # Quality on an easy synthetic benchmark must be high.
        oq = float(printed.split("OQ=")[1].split("%")[0])
        assert oq > 90.0

    def test_cluster_to_stdout(self, simulated_fasta, capsys):
        fa, _truth = simulated_fasta
        assert main(["cluster", str(fa), "--w", "6", "--psi", "15"]) == 0
        out = capsys.readouterr().out
        assert all("\t" in line for line in out.strip().splitlines())

    def test_per_cluster_fasta_dir(self, simulated_fasta, tmp_path):
        fa, _truth = simulated_fasta
        out = tmp_path / "clusters.tsv"
        fa_dir = tmp_path / "per_cluster"
        argv = self._cluster_args(fa, out) + ["--clusters-fasta-dir", str(fa_dir)]
        assert main(argv) == 0
        files = sorted(fa_dir.glob("cluster_*.fa"))
        assert files
        # Every input EST appears in exactly one cluster file.
        names = []
        for f in files:
            names += [l[1:].strip() for l in f.read_text().splitlines() if l.startswith(">")]
        assert len(names) == len(set(names)) == fa.read_text().count(">")

    def test_representatives_output(self, simulated_fasta, tmp_path):
        fa, _truth = simulated_fasta
        out = tmp_path / "clusters.tsv"
        reps = tmp_path / "reps.fa"
        argv = self._cluster_args(fa, out) + ["--representatives", str(reps)]
        assert main(argv) == 0
        n_clusters = len({l.split("\t")[1] for l in out.read_text().splitlines()})
        rep_text = reps.read_text()
        assert rep_text.count(">") == n_clusters
        assert "cluster_0 size=" in rep_text

    def test_parallel_simulated(self, simulated_fasta, tmp_path):
        fa, _truth = simulated_fasta
        out_seq = tmp_path / "seq.tsv"
        out_par = tmp_path / "par.tsv"
        assert main(self._cluster_args(fa, out_seq)) == 0
        argv = self._cluster_args(fa, out_par) + [
            "--parallel", "4", "--machine", "simulated",
        ]
        assert main(argv) == 0
        assert out_seq.read_text() == out_par.read_text()


_GOOD = ">a\n" + "ACGTTGCAAGCTTACGGATC" * 3 + "\n"


class TestClusterBadInput:
    """Input the run cannot start from is answered with one stderr line
    and exit status 2, not a traceback."""

    @pytest.mark.parametrize(
        "content, extra, cause",
        [
            (None, [], "No such file or directory"),
            ("ACGT\n" + _GOOD, [], "sequence data before first header at line 1"),
            (_GOOD + ">b\n>c\nACGT\n", [], "EST 1 is empty"),
            ("", [], "at least one EST"),
            (_GOOD, ["--psi", "3", "--w", "8"], "psi (3) must be >= w (8)"),
            # Refused before a monitor binds or writes anything.
            (_GOOD, ["--live-out", "never-written.jsonl", "--monitor-interval", "0"],
             "monitor_interval must be > 0, got 0.0"),
            (_GOOD, ["--monitor-port", "0", "--monitor-interval", "-1"],
             "monitor_interval must be > 0, got -1.0"),
            (_GOOD, ["--monitor-port", "70000"],
             "monitor_port must be in [0, 65535], got 70000"),
            (_GOOD, ["--monitor-port", "-5"],
             "monitor_port must be in [0, 65535], got -5"),
            # Output paths are refused before the run, not after it.
            (_GOOD, ["-o", "missing/x.tsv"], "--output missing/x.tsv: no directory missing"),
            (_GOOD, ["--representatives", "missing/r.fa"],
             "--representatives missing/r.fa: no directory missing"),
            (_GOOD, ["--telemetry-out", "missing/t.jsonl"],
             "--telemetry-out missing/t.jsonl: no directory missing"),
            (_GOOD, ["--live-out", "missing/l.jsonl"],
             "--live-out missing/l.jsonl: no directory missing"),
            (_GOOD, ["--clusters-fasta-dir", "in.fa/sub"],
             "--clusters-fasta-dir in.fa/sub: in.fa is not a directory"),
            (_GOOD, ["--obs-out", "in.fa/obs"], "--obs-out in.fa/obs: in.fa is not a directory"),
            (_GOOD, ["-o", "."], "--output .: is a directory"),
        ],
        ids=["missing_file", "data_before_header", "empty_record", "empty_fasta",
             "rejected_config", "monitor_interval_zero", "monitor_interval_negative",
             "monitor_port_past_65535", "monitor_port_negative", "output_dir_missing",
             "representatives_dir_missing", "telemetry_out_dir_missing",
             "live_out_dir_missing", "clusters_fasta_dir_under_a_file",
             "obs_out_under_a_file", "output_is_a_directory"],
    )
    def test_one_line_and_exit_2(self, tmp_path, capsys, monkeypatch, content, extra, cause):
        monkeypatch.chdir(tmp_path)  # relative sinks land, if at all, in here
        fa = tmp_path / "in.fa"
        if content is not None:
            fa.write_text(content)
        assert main(["cluster", str(fa), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        source = "options" if extra else str(fa)
        assert line.startswith(f"pace-est: error: {source}: ")
        assert cause in line and "Traceback" not in line
        assert [p.name for p in tmp_path.iterdir()] == ([] if content is None else ["in.fa"])

    @pytest.mark.parametrize("machine", ["simulated", "multiprocessing"])
    @pytest.mark.parametrize("processors", [1, -3])
    def test_parallel_without_a_slave(self, tmp_path, capsys, processors, machine):
        fa = tmp_path / "in.fa"
        fa.write_text(_GOOD)
        argv = ["cluster", str(fa), "--parallel", str(processors), "--machine", machine]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"pace-est: error: options: --parallel {processors}: ")
        assert "P >= 2 for a master and at least one slave" in line

    def test_corpus_past_the_index_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.suffix.gst.MAX_POSITIONS", 100)
        fa = tmp_path / "in.fa"
        fa.write_text(_GOOD)
        assert main(["cluster", str(fa)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"pace-est: error: {fa}: corpus has 122 text positions")
        assert line.endswith("at most 100")

    def test_errors_after_loading_still_propagate(self, tmp_path, monkeypatch):
        from repro.core import PaceClusterer

        def boom(self, collection, **kwargs):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(PaceClusterer, "cluster", boom)
        fa = tmp_path / "in.fa"
        fa.write_text(_GOOD)
        with pytest.raises(ValueError, match="a bug"):
            main(["cluster", str(fa)])


_META = '{"kind": "meta", "schema": "repro-telemetry/4"}\n'
_REFERENCE = Path(__file__).parent / "data" / "reference_trace.jsonl"


class TestTraceBadInput:
    """A trace the tools cannot read is answered like bad cluster input:
    one stderr line and exit status 2 (status 1 stays the gates')."""

    @pytest.mark.parametrize(
        "command", ["report", "analyze", "perfetto", "monitor", "diff"]
    )
    @pytest.mark.parametrize(
        "content, cause",
        [
            (None, "No such file or directory"),
            (_META + "[1, 2]\n", ":2: not a JSON object: list"),
            (
                _META + '{"kind": "trace", "event": "send", "actor": "master", '
                '"ts": 1.0, "end": "x"}\n',
                "record 1: end 'x' is not a number",
            ),
            (
                _META + '{"kind": "metric", "metric": "histogram", "name": "h", '
                '"buckets": [1.0], "counts": [0, "1"], "count": 1, "sum": 1.0}\n',
                "record 1: histogram 'h' buckets and counts must be lists of "
                "numbers",
            ),
        ],
        ids=["missing_file", "non_object_line", "string_end", "string_count"],
    )
    def test_one_line_and_exit_2(self, tmp_path, capsys, command, content, cause):
        trace = tmp_path / "bad.jsonl"
        if content is not None:
            trace.write_text(content)
        # diff names whichever of its two traces is bad: here the candidate.
        argv = [command, str(_REFERENCE), str(trace)] if command == "diff" else [
            command, str(trace)
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"pace-est: error: {trace}")
        assert cause in line and "Traceback" not in line


class TestEvaluate:
    def test_missing_est_rejected(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("x\t0\n")
        b.write_text("x\t0\ny\t1\n")
        with pytest.raises(SystemExit, match="missing"):
            main(["evaluate", str(a), str(b)])

    def test_malformed_line_rejected(self, tmp_path):
        a = tmp_path / "a.tsv"
        a.write_text("justonecolumn\n")
        with pytest.raises(SystemExit, match="expected"):
            main(["evaluate", str(a), str(a)])

    def test_comments_and_blanks_ignored(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text("# header\n\nx\t0\ny\t0\n")
        assert main(["evaluate", str(a), str(a)]) == 0
        assert "OQ=100.00%" in capsys.readouterr().out
