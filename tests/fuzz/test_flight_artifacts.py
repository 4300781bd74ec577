"""Triage buckets gain post-mortem flight recordings."""

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.fuzz.campaign import CampaignResult, record_flight, save_reproducers

CORPUS = Path(__file__).resolve().parent / "corpus"

FAULTING = """\
def main() {
  print(7);
  var zero = 0;
  print(9 / zero);
}
"""


def test_record_flight_captures_the_fault():
    recorder = record_flight("mini", FAULTING, "vm-error|DivisionByZeroError")
    kinds = [entry[2] for entry in recorder.entries()]
    assert kinds[0] == "triage"
    assert recorder.entries()[0][3]["key"] == "vm-error|DivisionByZeroError"
    assert "fault" in kinds
    fault = next(e for e in recorder.entries() if e[2] == "fault")[3]
    assert fault["error"] == "DivisionByZeroError"


def test_record_flight_survives_unbuildable_source():
    recorder = record_flight("mini", "def main( {", "syntax")
    kinds = [entry[2] for entry in recorder.entries()]
    assert kinds == ["triage", "build-error"]


def test_save_reproducers_writes_flight_jsonl(tmp_path):
    result = CampaignResult()
    result.reproducers["vm-error|DivisionByZeroError"] = {
        "kind": "mini",
        "triage": "vm-error|DivisionByZeroError",
        "source": FAULTING,
        "lines": FAULTING.count("\n"),
    }
    paths = save_reproducers(result, str(tmp_path))
    assert len(paths) == 1
    flight = tmp_path / "repro_000.flight.jsonl"
    assert flight.exists()
    records = [json.loads(line) for line in flight.read_text().splitlines()]
    assert records[0]["record"] == "flight"
    assert records[1]["kind"] == "triage"
    assert any(r.get("kind") == "fault" for r in records[1:])


def test_faulting_corpus_run_leaves_a_flight_recording(tmp_path, capsys):
    """``repro-mini run`` on a faulting reproducer exits nonzero and
    writes ``FILE.flight.jsonl`` next to it, ending in the dump record."""
    guest = tmp_path / "repro_005.mini"
    shutil.copy(CORPUS / "repro_005.mini", guest)
    assert main(["run", str(guest)]) != 0
    assert "flight recording written" in capsys.readouterr().err
    flight = tmp_path / "repro_005.mini.flight.jsonl"
    records = [json.loads(line) for line in flight.read_text().splitlines()]
    assert records[0]["record"] == "flight", records[0]
    kinds = [record["kind"] for record in records[1:]]
    assert "fault" in kinds and kinds[-1] == "dump", kinds
