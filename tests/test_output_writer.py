"""cli._write_file, the one writer of every CLI output: files are rewritten in place."""

import json
import os
import re
import stat
from pathlib import Path

import pytest

import qbattery.cli as cli
from qbattery.cli import _write_file, main
from qbattery.dynamics import builtin_exchange_scenario

SHORT = "<a 50-step exchange scenario file>"


def test_shorter_rewrite_reads_back_exactly(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(os.urandom(40_000))
    data = bytes(range(256)) * 3 + b"\n" * 132
    assert len(data) == 900
    _write_file(str(path), data)
    assert path.read_bytes() == data


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_new_file_mode_is_0o666_under_the_umask(tmp_path, umask):
    path = tmp_path / "new"
    old = os.umask(umask)
    try:
        _write_file(str(path), b"{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert path.read_bytes() == b"{}\n"


def test_writes_through_symlinks_and_hard_links(tmp_path):
    target = tmp_path / "target"
    target.write_bytes(b"x" * 5000)
    hard = tmp_path / "hard"
    os.link(target, hard)
    link = tmp_path / "link"
    link.symlink_to(target)
    _write_file(str(link), b"new bytes\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == hard.read_bytes() == b"new bytes\n"


@pytest.mark.parametrize("old_size", [0, 899, 900, 901, 40_000])
def test_blocks_are_written_in_place_and_cut_only_when_shorter(tmp_path, old_size):
    path = tmp_path / "out"
    path.write_bytes(b"\xff" * old_size)
    blocks = [bytes(range(256)), b"", b"x" * 500, b"\n" * 144]
    assert sum(map(len, blocks)) == 900
    _write_file(str(path), iter(blocks))
    assert path.read_bytes() == b"".join(blocks)


def test_dev_null_is_accepted():
    _write_file("/dev/null", b"x" * 900)
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


# verify is covered by tests/test_cli.py::test_unwritable_out
@pytest.mark.parametrize("argv", [
    ("evolve", "--config", "exchange"),
    ("search", "--mode", "saturation", "--dims", "2,1,1,1", "--budget", "40", "--restarts", "1"),
    ("demo", "--case", "real-cov"),
], ids=lambda argv: argv[0])
def test_out_in_missing_directory_exits_2(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "no" / "such" / "dir" / "x")]) == 2


def _outputs(out: Path) -> list:
    """The payload, the CSV if any, and the manifest without its timings.

    The timings are the duration_seconds line and verify's stage_seconds
    object; the resources object, page faults and peak RSS, varies as they do.
    """
    files = [out, Path(str(out) + ".trials.csv")]
    found = [p.read_bytes() for p in files if p.exists()]
    manifest = Path(str(out) + ".manifest.json").read_bytes()
    manifest = re.sub(rb'\n  "(resources|stage_seconds)": \{[^}]*\},?', b"", manifest)
    return found + [re.sub(rb'\n  "duration_seconds": [^\n]*', b"", manifest)]


# (larger run, smaller run): the smaller one rewrites the larger one's files
_REWRITES = {
    "verify-csv": (("verify", "--dims", "2,2,1,1", "--trials", "200", "--format", "csv"),
                   ("verify", "--dims", "2,1,1,1", "--trials", "20", "--format", "csv")),
    "verify-json": (("verify", "--dims", "2,2,1,1", "--trials", "200", "--format", "json"),
                    ("verify", "--dims", "2,1,1,1", "--trials", "20", "--format", "json")),
    # 20,000 rows in blocks of 4,096 over 9,000: the smaller run ends inside a
    # block. The larger run is at D = 4, so its worst case's 4 x 4 matrices make
    # its payload longer than the smaller run's 2 x 2 ones, whatever the digits.
    "verify-csv-blocks": (("verify", "--dims", "2,2,1,1", "--trials", "20000", "--format", "csv"),
                          ("verify", "--dims", "2,1,1,1", "--trials", "9000", "--format", "csv")),
    "evolve-csv": (("evolve", "--config", "exchange"),
                   ("evolve", "--config", SHORT)),
    "evolve-json": (("evolve", "--config", "exchange", "--format", "json"),
                    ("evolve", "--config", SHORT, "--format", "json")),
    "search": (("search", "--mode", "saturation", "--dims", "2,2,1,1", "--budget", "400", "--restarts", "2"),
               ("search", "--mode", "saturation", "--dims", "2,1,1,1", "--budget", "400", "--restarts", "2")),
    "demo": (("demo", "--case", "saturating", "--format", "json"),
             ("demo", "--case", "eigenstate", "--format", "json")),
}


@pytest.mark.parametrize("larger, smaller", _REWRITES.values(), ids=_REWRITES)
def test_rewrite_matches_a_fresh_run_without_truncating(tmp_path, monkeypatch, larger, smaller):
    scenario = tmp_path / "short.json"
    scenario.write_text(json.dumps(builtin_exchange_scenario(steps=50)))
    smaller = [str(scenario) if a == SHORT else a for a in smaller]

    def refuse(self, data):
        raise AssertionError(f"Path.write_bytes({self})")

    flags, os_open = [], os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(Path, "write_bytes", refuse)
    monkeypatch.setattr(os, "open", recording_open)
    reused, fresh = tmp_path / "reused.json", tmp_path / "fresh.json"
    assert main([*larger, "--out", str(reused)]) == 0
    before = _outputs(reused)
    assert main([*smaller, "--out", str(reused)]) == 0
    assert main([*smaller, "--out", str(fresh)]) == 0

    after = _outputs(reused)
    assert after == _outputs(fresh)
    assert len(after) == len(before)
    assert all(len(old) > len(new) for old, new in zip(before[:-1], after))  # every data file shrank
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


@pytest.mark.parametrize("block_rows", [1, 7, 1500])
def test_verify_csv_blocks_join_to_the_same_bytes(tmp_path, monkeypatch, block_rows):
    argv = ["verify", "--dims", "2,2,1,1", "--trials", "1500", "--format", "csv"]
    assert main([*argv, "--out", str(tmp_path / "one.json")]) == 0
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    assert main([*argv, "--out", str(tmp_path / "blocks.json")]) == 0
    one = (tmp_path / "one.json.trials.csv").read_bytes()
    assert (tmp_path / "blocks.json.trials.csv").read_bytes() == one
    assert one.count(b"\n") == 1501
