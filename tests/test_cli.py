"""CLI tests (argument handling and output shape, small scale)."""

import re

import pytest

from repro.cli import EXPERIMENTS, main
from repro.warehouse import connect
from repro.warehouse.queries import REPORTS

SMALL = ["--scale", "20000", "--seed", "7"]


def test_world_summary(capsys):
    assert main(["world", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "simulated Internet, week 18" in out
    assert "autonomous systems:" in out
    assert "blocklist:" in out


def test_experiment_t3(capsys):
    assert main(["experiment", "T3", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "[T3]" in out
    assert "Crypto Error (0x128)" in out


def test_experiment_lowercase_id(capsys):
    assert main(["experiment", "t6", *SMALL]) == 0
    assert "[T6]" in capsys.readouterr().out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "T99", *SMALL]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_registry_complete():
    for expected in ("T1", "T2", "T3", "T4", "T5", "T6", "F3", "F4", "F5", "F6",
                     "F7", "F8", "F9", "A1", "A2", "A3", "A5", "A6", "A7", "E1"):
        assert expected in EXPERIMENTS


def test_scan_prints_core_tables(capsys):
    assert main(["scan", *SMALL]) == 0
    out = capsys.readouterr().out
    for marker in ("[T1]", "[T3]", "[T4]"):
        assert marker in out


def test_scan_output_dns_jsonl_keeps_every_listed_name(tmp_path, capsys):
    import json

    from repro.internet.domains import LIST_SIZES

    assert main(["scan", *SMALL, "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "dns.jsonl").read_text().splitlines()
    assert len(lines) == sum(LIST_SIZES.values())
    domains = [json.loads(line)["domain"] for line in lines]
    assert len(set(domains)) > len(domains) // 2  # names, not one repeated record


def test_exhausted_address_space_is_one_line_and_exit_2(monkeypatch, capsys):
    """A world that outgrows its space, here every space shrunk to a /24."""
    from repro.internet import generator
    from repro.netsim.addresses import Prefix

    real_init = generator._AddressAllocator.__init__
    monkeypatch.setattr(
        generator._AddressAllocator,
        "__init__",
        lambda self, space: real_init(self, Prefix.parse("100.64.0.0/24")),
    )
    with pytest.raises(generator.AddressSpaceExhausted):
        generator._AddressAllocator(None).alloc_v4_prefix(257)
    assert main(["scan", "--scale", "20000", "--seed", "4242"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("quicrepro: simulated IPv4 space 100.64.0.0/24 exhausted")


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--smoke", "--scale", "2000"], "--scale applies only to --profile"),
        (["--smoke", "--top", "5"], "--top applies only to --profile"),
        (["--profile", "--workers", "2"], "--workers applies only to --smoke"),
    ],
)
def test_bench_rejects_the_other_modes_option(monkeypatch, capsys, argv, message):
    """An option of the mode not chosen is an argparse error, in both
    directions, before anything runs."""
    import repro.perf

    def ran(*args, **kwargs):
        raise AssertionError("a bench mode ran")

    monkeypatch.setattr(repro.perf, "run_smoke", ran)
    monkeypatch.setattr(repro.perf, "run_profile", ran)
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", *argv])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")


def test_bench_profile_sections_are_the_stages_then_world_and_load(capsys):
    """``--profile`` shows the two non-scan layers of a week beside the
    stages: the world build and the warehouse load."""
    from repro.experiments.stages import STAGE_NAMES

    assert main(["bench", "--profile", "--scale", "200000", "--top", "1"]) == 0
    headers = [line for line in capsys.readouterr().out.splitlines() if line.startswith("== ")]
    assert [line.split()[1] for line in headers] == [*STAGE_NAMES, "world", "load"]
    assert headers[-2].endswith(" deployments) ==") and headers[-1].endswith(" rows) ==")


def test_bench_modes_take_their_own_options_and_defaults(monkeypatch):
    import repro.perf
    from repro.internet.providers import scale_for

    calls = []
    smoke = {
        "campaign": {"serial_cold_seconds": 1.0, "parallel_cold_seconds": 1.0},
        "scale": {"addresses": 1},
    }
    monkeypatch.setattr(
        repro.perf, "run_profile", lambda scale, **kwargs: calls.append((scale, kwargs)) or []
    )
    monkeypatch.setattr(repro.perf, "run_smoke", lambda **kwargs: calls.append(kwargs) or smoke)
    monkeypatch.setattr(repro.perf, "check_benchmarks", lambda results: [])
    monkeypatch.setattr("repro.cli._print_streaming", lambda results: None)
    assert main(["bench", "--profile", "--scale", "200000", "--top", "5"]) == 0
    assert main(["bench", "--profile"]) == 0
    assert main(["bench", "--smoke", "--workers", "3"]) == 0
    assert main(["bench", "--smoke"]) == 0
    assert calls == [
        (scale_for(200000), {"week": 18, "seed": 0, "top": 5}),
        (scale_for(20000), {"week": 18, "seed": 0, "top": 15}),
        {"week": 18, "seed": 0, "workers": 3},
        {"week": 18, "seed": 0, "workers": 2},
    ]


def test_query_help_names_every_report(capsys):
    with pytest.raises(SystemExit):
        main(["query", "--help"])
    # argparse wraps the help at hyphens too: undo that before matching.
    text = re.sub(r"-\s+", "-", " ".join(capsys.readouterr().out.split()))
    for name in REPORTS:
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text), name
    for scope in ("a campaign id", "a run id", "a matrix id"):
        assert scope in text


@pytest.mark.parametrize(
    "report,scope", [("table3", "campaign"), ("weeks", "run"), ("matrix", "matrix")]
)
def test_query_refuses_a_key_the_warehouse_does_not_record(tmp_path, capsys, report, scope):
    """A mistyped ``--campaign`` is an error naming its scope, not an empty report."""
    db = tmp_path / "wh.sqlite"
    connect(db).close()
    assert main(["query", report, "--db", str(db), "--campaign", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{scope} 'nope' is not recorded in this warehouse\n"


def test_query_reads_the_empty_qa_ledger_of_a_recorded_matrix(tmp_path, capsys):
    """The QA ledger's key may be a matrix id, which ``matrix_runs`` records."""
    conn = connect(tmp_path / "wh.sqlite")
    with conn:
        conn.execute("INSERT INTO matrix_runs VALUES ('m', '', 0, 0, '', '', 5)")
    conn.close()
    assert main(["query", "qa", "--db", str(tmp_path / "wh.sqlite"), "--campaign", "m"]) == 0
    assert "Warehouse QA ledger" in capsys.readouterr().out
