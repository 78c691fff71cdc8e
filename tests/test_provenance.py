"""Tests for ``repro.provenance`` — the hash-chained result ledger.

Property tests for the chain primitives (canonical-JSON stability, NaN
rejection, tamper detection naming the *first* broken link, empty and
single-entry chains), concurrency of the exclusive-create append, the
sweep-cache choke point (fresh caches verify, resumes append nothing,
tampering is caught), and the ``repro verify`` CLI exit codes.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ProvenanceError
from repro.provenance import (
    MANIFEST_SCHEMA,
    PROVENANCE_DIRNAME,
    canon_hash,
    canonical_json,
    chain_hash,
    genesis_root,
    hash_bytes,
    record_artifact,
    verify_chain,
)
from repro.sweep import SweepSpec, run_sweep


def _write_payload(directory, name="point.json", body=None):
    path = directory / name
    path.write_text(json.dumps(body or {"value": 1}))
    return path


def _manifest_paths(directory):
    return sorted((directory / PROVENANCE_DIRNAME).glob("manifest-*.json"))


# ---------------------------------------------------------------------
# Canonical JSON primitives
# ---------------------------------------------------------------------


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == (
        canonical_json({"a": [2, {"c": 4, "d": 3}]} | {"b": 1})
    )
    assert canon_hash({"x": 1, "y": 2}) == canon_hash({"y": 2, "x": 1})


def test_canonical_json_is_compact_and_sorted():
    assert canonical_json({"b": 1, "a": "ü"}) == '{"a":"ü","b":1}'


def test_canonical_json_rejects_nan_and_infinity():
    for poison in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ProvenanceError):
            canonical_json({"value": poison})


def test_canonical_json_rejects_unserialisable_values():
    with pytest.raises(ProvenanceError):
        canonical_json({"value": object()})


def test_hash_primitives_are_deterministic():
    assert hash_bytes(b"abc") == hash_bytes(b"abc")
    assert hash_bytes(b"abc") != hash_bytes(b"abd")
    assert genesis_root() == genesis_root()
    assert chain_hash(genesis_root(), canon_hash({"a": 1})) != (
        chain_hash(genesis_root(), canon_hash({"a": 2}))
    )


# ---------------------------------------------------------------------
# record_artifact / verify_chain round trips
# ---------------------------------------------------------------------


def test_empty_directory_verifies_vacuously(tmp_path):
    report = verify_chain(tmp_path)
    assert report.ok
    assert report.entries == 0 and report.payloads == 0
    assert report.render().startswith("ok: ")


def test_missing_directory_is_an_error(tmp_path):
    report = verify_chain(tmp_path / "nope")
    assert not report.ok
    assert "not a directory" in report.first_broken


def test_single_entry_chain(tmp_path):
    payload = _write_payload(tmp_path)
    entry = record_artifact(payload, kind="test", context={"seed": 3})
    assert entry["schema"] == MANIFEST_SCHEMA
    assert entry["seq"] == 1
    assert entry["prev_chain_root"] == genesis_root()
    assert entry["payload"] == "point.json"
    assert entry["context"] == {"seed": 3}
    report = verify_chain(tmp_path)
    assert report.ok
    assert report.entries == 1 and report.payloads == 1


def test_entries_link_through_history(tmp_path):
    first = record_artifact(_write_payload(tmp_path, "a.json"), kind="t")
    second = record_artifact(_write_payload(tmp_path, "b.json"), kind="t")
    assert second["seq"] == 2
    assert second["prev_chain_root"] == first["chain_root"]
    assert verify_chain(tmp_path).ok


def test_rewrite_appends_and_latest_manifest_wins(tmp_path):
    payload = _write_payload(tmp_path, body={"value": 1})
    record_artifact(payload, kind="t")
    payload.write_text(json.dumps({"value": 2}))
    # The stale manifest now disagrees with the bytes on disk ...
    assert not verify_chain(tmp_path).ok
    # ... until the rewrite is attested by a fresh append.
    record_artifact(payload, kind="t")
    report = verify_chain(tmp_path)
    assert report.ok
    assert report.entries == 2 and report.payloads == 1


def test_unattested_payload_is_flagged(tmp_path):
    _write_payload(tmp_path, "stray.json")
    report = verify_chain(tmp_path)
    assert not report.ok
    assert "stray.json has no provenance manifest" in report.first_broken


def test_non_json_files_are_outside_the_boundary(tmp_path):
    (tmp_path / "notes.csv").write_text("a,b\n1,2\n")
    assert verify_chain(tmp_path).ok


# ---------------------------------------------------------------------
# Tamper detection — the first broken link is named
# ---------------------------------------------------------------------


def test_payload_tamper_names_the_file(tmp_path):
    payload = _write_payload(tmp_path)
    record_artifact(payload, kind="t")
    raw = bytearray(payload.read_bytes())
    raw[-2] ^= 0xFF
    payload.write_bytes(bytes(raw))
    report = verify_chain(tmp_path)
    assert not report.ok
    assert "payload point.json does not match its manifest" in (
        report.first_broken
    )


def test_manifest_field_tamper_breaks_its_own_link(tmp_path):
    record_artifact(_write_payload(tmp_path, "a.json"), kind="t")
    record_artifact(_write_payload(tmp_path, "b.json"), kind="t")
    first, _second = _manifest_paths(tmp_path)
    entry = json.loads(first.read_text())
    entry["kind"] = "forged"
    first.write_text(canonical_json(entry))
    report = verify_chain(tmp_path)
    assert not report.ok
    assert report.first_broken == (
        f"manifest {first.name} is tampered: recorded chain_root does "
        "not match its recomputed content hash"
    )


def test_corrupt_manifest_json_is_the_broken_link(tmp_path):
    record_artifact(_write_payload(tmp_path), kind="t")
    (manifest,) = _manifest_paths(tmp_path)
    raw = bytearray(manifest.read_bytes())
    raw[0] ^= 0xFF  # clobber the opening brace: unparseable JSON
    manifest.write_bytes(bytes(raw))
    report = verify_chain(tmp_path)
    assert report.first_broken == (
        f"manifest {manifest.name} is unreadable (corrupt JSON)"
    )


def test_deleted_manifest_is_a_gap(tmp_path):
    for name in ("a.json", "b.json", "c.json"):
        record_artifact(_write_payload(tmp_path, name), kind="t")
    _first, second, _third = _manifest_paths(tmp_path)
    second.unlink()
    report = verify_chain(tmp_path)
    assert report.first_broken == "missing manifest seq 2 (gap in the chain)"
    # The walk stops at the gap: only the intact prefix is counted.
    assert report.entries == 1


def test_orphaned_manifest_names_the_missing_payload(tmp_path):
    payload = _write_payload(tmp_path)
    record_artifact(payload, kind="t")
    payload.unlink()
    report = verify_chain(tmp_path)
    assert report.first_broken == (
        "orphaned manifest (seq 1): payload point.json is missing"
    )


def test_chain_walk_failure_precedes_payload_failures(tmp_path):
    first_payload = _write_payload(tmp_path, "a.json")
    record_artifact(first_payload, kind="t")
    record_artifact(_write_payload(tmp_path, "b.json"), kind="t")
    first, _ = _manifest_paths(tmp_path)
    entry = json.loads(first.read_text())
    entry["kind"] = "forged"
    first.write_text(canonical_json(entry))
    first_payload.write_bytes(b'{"also": "tampered"}')
    report = verify_chain(tmp_path)
    # Both failures are reported, chain-walk damage first.
    assert "manifest" in report.first_broken
    assert any("payload a.json" in error for error in report.errors)


def test_unrecognised_file_in_chain_dir_is_flagged(tmp_path):
    record_artifact(_write_payload(tmp_path), kind="t")
    (tmp_path / PROVENANCE_DIRNAME / "README.txt").write_text("hi")
    report = verify_chain(tmp_path)
    assert any("unrecognised file" in error for error in report.errors)


def test_nan_in_context_is_rejected_before_commit(tmp_path):
    payload = _write_payload(tmp_path)
    with pytest.raises(ProvenanceError):
        record_artifact(payload, kind="t", context={"x": float("nan")})
    # Nothing was committed: the payload is now merely unattested.
    assert not (tmp_path / PROVENANCE_DIRNAME / "manifest-000001.json").exists()


# ---------------------------------------------------------------------
# Concurrency: exclusive-create append linearises writers
# ---------------------------------------------------------------------


def test_concurrent_appends_form_one_contiguous_chain(tmp_path):
    paths = [
        _write_payload(tmp_path, f"point-{i}.json", body={"i": i})
        for i in range(8)
    ]
    barrier = threading.Barrier(len(paths))

    def append(path):
        barrier.wait()
        record_artifact(path, kind="race")

    threads = [
        threading.Thread(target=append, args=(p,)) for p in paths
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report = verify_chain(tmp_path)
    assert report.ok, report.render()
    assert report.entries == len(paths)
    assert report.payloads == len(paths)


# ---------------------------------------------------------------------
# Sweep-cache choke point
# ---------------------------------------------------------------------


def _tiny_spec():
    return SweepSpec(
        grid={"n": [20, 40], "k": [2]},
        num_runs=2,
        seed=11,
        fixed={"dynamics": "3-majority", "max_rounds": 60},
    )


def test_sweep_cache_is_chain_attested(tmp_path):
    run_sweep(_tiny_spec(), cache_dir=tmp_path)
    report = verify_chain(tmp_path)
    assert report.ok, report.render()
    assert report.entries == 2 and report.payloads == 2
    manifest = json.loads(_manifest_paths(tmp_path)[0].read_text())
    assert manifest["kind"] == "sweep-point"
    context = manifest["context"]
    assert {
        "point_key",
        "spec_hash",
        "backend",
        "engine",
        "seed_entropy",
        "measure",
    } <= set(context)
    # The default consensus-time measure runs the batch sibling.
    assert context["engine"] == "batch"


def test_sweep_resume_appends_nothing(tmp_path):
    run_sweep(_tiny_spec(), cache_dir=tmp_path)
    run_sweep(_tiny_spec(), cache_dir=tmp_path)  # full cache hit
    report = verify_chain(tmp_path)
    assert report.ok
    assert report.entries == 2


def test_sweep_cache_tamper_is_caught(tmp_path):
    run_sweep(_tiny_spec(), cache_dir=tmp_path)
    victim = sorted(tmp_path.glob("*.json"))[0]
    raw = bytearray(victim.read_bytes())
    raw[-2] ^= 0xFF
    victim.write_bytes(bytes(raw))
    report = verify_chain(tmp_path)
    assert not report.ok
    assert victim.name in report.first_broken


# ---------------------------------------------------------------------
# CLI: repro verify
# ---------------------------------------------------------------------


def test_cli_verify_ok_and_broken_exit_codes(tmp_path, capsys):
    payload = _write_payload(tmp_path)
    record_artifact(payload, kind="t")
    assert main(["verify", str(tmp_path)]) == 0
    assert "ok:" in capsys.readouterr().out
    raw = bytearray(payload.read_bytes())
    raw[-2] ^= 0xFF
    payload.write_bytes(bytes(raw))
    assert main(["verify", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "BROKEN" in out and "point.json" in out


def test_cli_verify_file_argument_verifies_its_directory(tmp_path, capsys):
    payload = _write_payload(tmp_path)
    record_artifact(payload, kind="t")
    assert main(["verify", str(payload)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_verify_multiple_paths_any_failure_wins(tmp_path, capsys):
    good = tmp_path / "good"
    bad = tmp_path / "bad"
    good.mkdir()
    bad.mkdir()
    record_artifact(_write_payload(good), kind="t")
    _write_payload(bad, "unattested.json")
    assert main(["verify", str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ok:" in out and "BROKEN" in out


def _bench_git_sha():
    """``_git_sha`` from the benchmark harness's ``conftest.py``."""
    path = Path(__file__).parent.parent / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._git_sha


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_sha_marks_uncommitted_code_dirty(tmp_path):
    """A BENCH artefact names HEAD only when the code it ran is HEAD's:
    a change to src/ or benchmarks/*.py adds ``+dirty``, while the
    artefacts every bench rewrites under benchmarks/out/ do not."""
    git_sha = _bench_git_sha()

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()

    files = {
        "src/module.py": "x = 1\n",
        "benchmarks/bench_x.py": "y = 1\n",
        "benchmarks/out/BENCH_x.json": "{}\n",
    }
    for name, body in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(body)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    head = git("rev-parse", "HEAD")
    assert git_sha(tmp_path) == head
    (tmp_path / "benchmarks/out/BENCH_x.json").write_text('{"a": 1}\n')
    assert git_sha(tmp_path) == head
    for name in ("src/module.py", "benchmarks/bench_x.py"):
        (tmp_path / name).write_text("changed = True\n")
        assert git_sha(tmp_path) == head + "+dirty"
        git("checkout", "--", name)
    assert git_sha(tmp_path) == head
