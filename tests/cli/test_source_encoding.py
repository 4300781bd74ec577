"""Source files are UTF-8; anything else is a one-line diagnostic.

``run``, ``disasm`` and ``check`` read the program through one loader;
a file that does not decode must exit 1 with ``cannot read PATH: …`` —
the message an unreadable file gets — never a traceback.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.mark.parametrize("command", ["run", "disasm", "check"])
def test_non_utf8_source_is_a_read_error(tmp_path, command):
    path = tmp_path / "latin1.mini"
    path.write_bytes(b"\xff" + "def main() { print(1); }".encode())
    with pytest.raises(SystemExit) as info:
        main([command, str(path)])
    message = str(info.value.code)
    assert message.startswith(f"cannot read {path}: ") and "\n" not in message
    assert "can't decode byte 0xff" in message


def test_non_utf8_source_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "latin1.mini"
    path.write_bytes(b"\xff\xfe")
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", str(path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC},
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith(f"cannot read {path}: ")
    assert "Traceback" not in done.stderr


def test_utf8_source_with_non_ascii_comment_still_runs(tmp_path, capsys):
    path = tmp_path / "utf8.mini"
    path.write_text("// naïve café\ndef main() { print(7); }\n", encoding="utf-8")
    assert main(["run", str(path)]) in (0, None)
    assert capsys.readouterr().out.strip() == "7"
