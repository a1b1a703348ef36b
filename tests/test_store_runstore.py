"""Unit tests for the on-disk RunStore (journal, manifests, gc)."""

import json

import numpy as np
import pytest

from repro.store import SCHEMA_VERSION, RunStore, open_store
from repro.store.keys import TrialSeed, trial_key
from repro.core.regimes import NetworkParameters

PARAMS = NetworkParameters(alpha="1/4", cluster_exponent=1)


def key_for(index, seed=0):
    return trial_key(PARAMS, "A", 100, TrialSeed(seed, index))


class TestJournal:
    def test_put_get_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(key_for(0), 0.125, 1.5)
        hit = store.get(key_for(0))
        assert hit.value == 0.125 and hit.duration == 1.5

    def test_miss_returns_none(self, tmp_path):
        assert RunStore(tmp_path).get(key_for(9)) is None

    def test_persists_across_instances(self, tmp_path):
        RunStore(tmp_path).put(key_for(0), {"rate": 0.5}, 0.1)
        hit = RunStore(tmp_path).get(key_for(0))
        assert hit.value == {"rate": 0.5}

    def test_last_write_wins(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(key_for(0), 1.0, 0.1)
        store.put(key_for(0), 2.0, 0.2)
        assert RunStore(tmp_path).get(key_for(0)).value == 2.0

    def test_use_cache_false_misses_but_still_journals(self, tmp_path):
        writer = RunStore(tmp_path, use_cache=False)
        writer.put(key_for(0), 3.0, 0.1)
        assert writer.get(key_for(0)) is None
        assert RunStore(tmp_path).get(key_for(0)).value == 3.0

    def test_len_counts_unique_keys(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(key_for(0), 1.0, 0.0)
        store.put(key_for(0), 2.0, 0.0)
        store.put(key_for(1), 3.0, 0.0)
        assert len(RunStore(tmp_path)) == 2


class TestCorruptionRecovery:
    def fill(self, tmp_path, count=3):
        store = RunStore(tmp_path)
        for index in range(count):
            store.put(key_for(index), float(index), 0.0)
        store.close()
        return store.journal_path

    def test_truncated_final_line_skipped(self, tmp_path):
        """A SIGKILL mid-append leaves a partial last line; everything
        before it must survive."""
        journal = self.fill(tmp_path)
        text = journal.read_text()
        journal.write_text(text + '{"schema":%d,"key":"abc","val' % SCHEMA_VERSION)
        store = RunStore(tmp_path)
        assert store.get(key_for(0)).value == 0.0
        assert store.get(key_for(2)).value == 2.0
        assert store.skipped_lines == 1

    def test_corrupted_middle_line_skipped(self, tmp_path):
        journal = self.fill(tmp_path)
        lines = journal.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2] + "#corrupt#"
        journal.write_text("\n".join(lines) + "\n")
        store = RunStore(tmp_path)
        assert store.get(key_for(0)).value == 0.0
        assert store.get(key_for(1)) is None  # the corrupted one reruns
        assert store.get(key_for(2)).value == 2.0

    def test_stale_schema_lines_ignored(self, tmp_path):
        journal = self.fill(tmp_path, count=1)
        record = json.loads(journal.read_text().splitlines()[0])
        record["schema"] = SCHEMA_VERSION + 1
        record["key"] = key_for(7)
        with open(journal, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        store = RunStore(tmp_path)
        assert store.get(key_for(0)) is not None
        assert store.get(key_for(7)) is None

    def test_blank_lines_tolerated(self, tmp_path):
        journal = self.fill(tmp_path, count=1)
        journal.write_text(journal.read_text() + "\n\n")
        assert RunStore(tmp_path).get(key_for(0)) is not None


class TestManifests:
    def test_record_and_load(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.record_run(
            "sweep",
            config={"n_values": [100, 200], "seed": 3},
            parameters=PARAMS,
            trial_keys=[key_for(0), key_for(1)],
            digest="d" * 64,
            durations=[0.1, 0.2],
        )
        manifest = store.load_run(run_id)
        assert manifest["command"] == "sweep"
        assert manifest["digest"] == "d" * 64
        assert manifest["config"]["seed"] == 3
        assert len(manifest["trial_keys"]) == 2
        for field in ("git_sha", "package_version", "python", "schema_version"):
            assert field in manifest["provenance"]

    def test_load_by_prefix_and_ambiguity(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.record_run("sweep")
        assert store.load_run(run_id[:12])["run_id"] == run_id
        with pytest.raises(KeyError):
            store.load_run("definitely-missing")

    def test_list_newest_first(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run("first")
        store.record_run("second")
        runs = store.list_runs()
        assert len(runs) == 2
        assert runs[0]["created"] >= runs[1]["created"]

    def test_same_second_runs_keep_recording_order(self, tmp_path):
        """Back-to-back record_run calls share a wall-clock second (the
        ``created`` string is identical); the sub-second ``created_ts``
        float must still order them newest-first."""
        store = RunStore(tmp_path)
        ids = [store.record_run(f"run-{index}") for index in range(3)]
        listed = [run["run_id"] for run in store.list_runs()]
        assert listed == ids[::-1]

    def write_manifest(self, tmp_path, run_id, created, created_ts=None):
        manifest = {"run_id": run_id, "command": "sweep", "created": created}
        if created_ts is not None:
            manifest["created_ts"] = created_ts
        path = tmp_path / RunStore.RUNS_DIR / f"{run_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest))

    def test_created_ts_beats_created_string(self, tmp_path):
        """Across a DST fall-back the local-time strings sort backwards;
        the epoch float is authoritative."""
        self.write_manifest(
            tmp_path, "run-early", "2026-11-01T01:30:00-0400", 1000.0
        )
        self.write_manifest(
            tmp_path, "run-late", "2026-11-01T01:15:00-0500", 3700.0
        )
        listed = [run["run_id"] for run in RunStore(tmp_path).list_runs()]
        assert listed == ["run-late", "run-early"]

    def test_legacy_manifest_sorts_by_parsed_created(self, tmp_path):
        """Manifests that predate ``created_ts`` fall back to parsing the
        ``created`` string (with or without a UTC offset) instead of
        sorting to the bottom."""
        store = RunStore(tmp_path)
        new_id = store.record_run("recent")
        self.write_manifest(tmp_path, "run-legacy", "2001-01-01T00:00:00")
        self.write_manifest(
            tmp_path, "run-legacy-tz", "2011-01-01T00:00:00+0000"
        )
        listed = [run["run_id"] for run in store.list_runs()]
        assert listed == [new_id, "run-legacy-tz", "run-legacy"]

    def test_cached_mask_roundtrips(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.record_run(
            "sweep", durations=[0.1, 0.2], cached=[True, False]
        )
        assert store.load_run(run_id)["cached"] == [True, False]

    def test_cached_mask_omitted_for_legacy_callers(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.record_run("sweep", durations=[0.1])
        assert "cached" not in store.load_run(run_id)

    def test_cached_mask_length_mismatch_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError, match="cached mask length"):
            store.record_run("sweep", durations=[0.1, 0.2], cached=[True])


class TestGC:
    def test_keep_prunes_manifests(self, tmp_path):
        store = RunStore(tmp_path)
        for _ in range(3):
            store.record_run("sweep", trial_keys=[key_for(0)])
        stats = store.gc(keep=1)
        assert stats.runs_removed == 2
        assert len(store.list_runs()) == 1

    def test_compaction_collapses_duplicates(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(key_for(0), 1.0, 0.0)
        store.put(key_for(0), 2.0, 0.0)
        stats = store.gc()
        assert stats.entries_kept == 1 and stats.entries_dropped == 1
        assert RunStore(tmp_path).get(key_for(0)).value == 2.0

    def test_orphans_kept_by_default(self, tmp_path):
        """Killed runs write no manifest; their journal entries must
        survive a default gc so the rerun can resume."""
        store = RunStore(tmp_path)
        store.put(key_for(0), 1.0, 0.0)
        stats = store.gc()
        assert stats.entries_kept == 1
        assert RunStore(tmp_path).get(key_for(0)) is not None

    def test_drop_orphans(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(key_for(0), 1.0, 0.0)
        store.put(key_for(1), 2.0, 0.0)
        store.record_run("sweep", trial_keys=[key_for(0)])
        stats = store.gc(drop_orphans=True)
        assert stats.entries_kept == 1 and stats.entries_dropped == 1
        fresh = RunStore(tmp_path)
        assert fresh.get(key_for(0)) is not None
        assert fresh.get(key_for(1)) is None

    def test_gc_drops_corrupt_lines(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(key_for(0), 1.0, 0.0)
        store.close()
        with open(store.journal_path, "a") as handle:
            handle.write('{"half a line')
        stats = RunStore(tmp_path).gc()
        assert stats.entries_dropped == 1
        # journal is clean again
        reloaded = RunStore(tmp_path)
        assert reloaded.get(key_for(0)) is not None
        assert reloaded.skipped_lines == 0

    def test_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path).gc(keep=-1)

    def test_failed_unlink_not_counted_as_removed(self, tmp_path, monkeypatch):
        """An EPERM/EBUSY unlink used to be silently swallowed while the
        manifest stayed on disk, overcounting ``runs_removed`` -- and a
        ``drop_orphans`` pass would then strand the live manifest's journal
        entries.  Failed victims must stay referenced and uncounted."""
        import pathlib

        store = RunStore(tmp_path)
        victim_key, survivor_key = key_for(0), key_for(1)
        store.put(victim_key, 1.0, 0.0)
        store.put(survivor_key, 2.0, 0.0)
        victim_id = store.record_run("sweep", trial_keys=[victim_key])
        store.record_run("sweep", trial_keys=[victim_key])
        store.record_run("sweep", trial_keys=[survivor_key])

        real_unlink = pathlib.Path.unlink

        def stubborn_unlink(self, *args, **kwargs):
            if self.name == f"{victim_id}.json":
                raise PermissionError(f"unlink forbidden: {self}")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "unlink", stubborn_unlink)
        stats = store.gc(keep=1, drop_orphans=True)
        # two victims attempted, one failed: only one actually removed
        assert stats.runs_removed == 1
        listed = {run["run_id"] for run in store.list_runs()}
        assert victim_id in listed and len(listed) == 2
        # the undeletable manifest's trial keys stayed referenced, so its
        # journal entry survived the orphan drop
        fresh = RunStore(tmp_path)
        assert fresh.get(victim_key) is not None
        assert fresh.get(survivor_key) is not None


class TestCopiedStore:
    """A store is a plain directory: a copy of it (say, synced from another
    host) serves the same trials and manifests as the original."""

    def _sweep(self, store):
        from repro.experiments.scaling import sweep_capacity

        return sweep_capacity(
            PARAMS, [60, 120], scheme="A", trials=2, seed=3, store=store
        )

    def test_copy_replays_every_trial(self, tmp_path):
        import shutil

        original = self._sweep(tmp_path / "original")
        shutil.copytree(tmp_path / "original", tmp_path / "copy")
        replay = self._sweep(tmp_path / "copy")
        assert replay.digest() == original.digest()
        assert replay.stats.cache_hits == 4
        assert len(RunStore(tmp_path / "copy").list_runs()) == 2
        assert len(RunStore(tmp_path / "original").list_runs()) == 1

    def test_copy_resolves_the_same_run_ids(self, tmp_path):
        import shutil

        store = RunStore(tmp_path / "original")
        run_id = store.record_run("sweep", digest="d" * 64)
        store.close()
        shutil.copytree(tmp_path / "original", tmp_path / "copy")
        copy = RunStore(tmp_path / "copy")
        assert copy.load_run(run_id[:12]) == store.load_run(run_id)
        assert copy.serve_index().resolve(run_id[:12]) == run_id


class TestOpenStore:
    def test_none_passthrough(self):
        assert open_store(None) is None

    def test_path_opens(self, tmp_path):
        store = open_store(tmp_path / "s")
        assert isinstance(store, RunStore)

    def test_instance_passthrough(self, tmp_path):
        store = RunStore(tmp_path)
        assert open_store(store) is store

    def test_ndarray_value_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        value = np.random.default_rng(1).random(5)
        store.put(key_for(0), value, 0.0)
        assert np.array_equal(RunStore(tmp_path).get(key_for(0)).value, value)
