//! Saved soak artifacts and exemplar-linked replay forensics.
//!
//! A soak run with `--out DIR` persists one [`ShardArchive`] per clean
//! shard plus the fleet's merged [`SketchBook`]. The archive pairs the
//! shard's recorded [`EventLog`] and last-good [`Snapshot`] with its
//! latency sketches and ledger digest, so any sketch [`Exemplar`] — a
//! `(shard seed, event index, span, ledger seq)` coordinate sampled from
//! a percentile bucket — can be *resolved*: the shard is re-executed up
//! to the exemplar's event (from boot, or the short way from the
//! snapshot), a watch is armed on the exemplar's mechanisms, and the
//! re-execution must reproduce the same `(span, ledger seq)` pair. That
//! turns a tail-latency data point into a replayable forensic artifact
//! rather than a number on a dashboard.

use std::fs;
use std::path::Path;

use overhaul_core::{apply_event, EventLog, System};
use overhaul_sim::{
    Dec, Enc, Exemplar, LedgerSummary, Mechanism, Pack, SketchBook, Snapshot, SnapshotError,
};

/// File name of the fleet's merged sketch book inside a soak output dir.
pub const MERGED_SKETCH_FILE: &str = "merged.sketch";

/// File name for one shard's archive inside a soak output dir.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.ov")
}

/// File name for one shard's failure triple inside a soak output dir.
pub fn triple_file_name(index: usize) -> String {
    format!("triple-{index:05}.ov")
}

/// One clean shard's replayable observability record: everything needed
/// to re-execute the shard and confirm any exemplar its sketches carry.
#[derive(Debug, Clone)]
pub struct ShardArchive {
    /// Shard index within the fleet.
    pub index: usize,
    /// The shard's decorrelated seed (exemplars are stamped with it).
    pub seed: u64,
    /// The shard machine's latency-sketch book at the end of the run.
    pub sketches: SketchBook,
    /// Digest of the shard's kernel ledger (for `ovq ledger-diff`).
    pub ledger: LedgerSummary,
    /// Every input the shard applied, hash-sealed.
    pub log: EventLog,
    /// Events already covered by `snapshot`.
    pub snap_idx: usize,
    /// The shard's last periodic checkpoint (after `snap_idx` events).
    pub snapshot: Snapshot,
}

impl ShardArchive {
    /// Serializes the archive (same versioned container as snapshots).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.index.pack(&mut enc);
        self.seed.pack(&mut enc);
        self.sketches.to_bytes().pack(&mut enc);
        self.ledger.pack(&mut enc);
        self.log.to_bytes().pack(&mut enc);
        self.snap_idx.pack(&mut enc);
        self.snapshot.to_bytes().pack(&mut enc);
        Snapshot::new(enc.into_bytes(), Vec::new()).to_bytes()
    }

    /// Parses an archive serialized by [`ShardArchive::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardArchive, SnapshotError> {
        let container = Snapshot::from_bytes(bytes)?;
        let mut dec = Dec::new(container.state());
        let index = Pack::unpack(&mut dec)?;
        let seed = Pack::unpack(&mut dec)?;
        let sketch_bytes: Vec<u8> = Pack::unpack(&mut dec)?;
        let ledger = Pack::unpack(&mut dec)?;
        let log_bytes: Vec<u8> = Pack::unpack(&mut dec)?;
        let snap_idx = Pack::unpack(&mut dec)?;
        let snap_bytes: Vec<u8> = Pack::unpack(&mut dec)?;
        dec.finish()?;
        Ok(ShardArchive {
            index,
            seed,
            sketches: SketchBook::from_bytes(&sketch_bytes)?,
            ledger,
            log: EventLog::from_bytes(&log_bytes)?,
            snap_idx,
            snapshot: Snapshot::from_bytes(&snap_bytes)?,
        })
    }
}

/// The verdict of re-executing an exemplar's coordinate.
#[derive(Debug, Clone)]
pub struct ExemplarResolution {
    /// Which shard the exemplar came from.
    pub shard_index: usize,
    /// Whether the re-execution took the short path from the shard's
    /// last-good snapshot (`false`: replayed from boot).
    pub from_snapshot: bool,
    /// Whether the re-execution reproduced the exemplar's exact
    /// `(span, ledger seq)` pair at its recorded event index.
    pub confirmed: bool,
    /// Every `(span, ledger seq)` the watched event actually produced
    /// for the exemplar's mechanisms (diagnostic on mismatch).
    pub watched: Vec<(u64, u64)>,
}

/// Finds the archive an exemplar points into, by shard seed.
pub fn find_archive(archives: &[ShardArchive], seed: u64) -> Option<&ShardArchive> {
    archives.iter().find(|a| a.seed == seed)
}

/// Re-executes `archive` up to `exemplar`'s event index and checks that
/// the watched mechanisms reproduce the exemplar's `(span, ledger seq)`
/// pair. Takes the short path from the archived snapshot when the
/// exemplar lies past it, otherwise replays from boot.
///
/// # Errors
///
/// A human-readable string when the exemplar predates the event stream
/// (boot-time observations cannot be re-armed), points past the log, or
/// the archived machine fails to boot/restore.
pub fn resolve_exemplar(
    archive: &ShardArchive,
    mechs: &[Mechanism],
    exemplar: &Exemplar,
) -> Result<ExemplarResolution, String> {
    let from_snapshot = exemplar.event_idx as usize > archive.snap_idx;
    resolve_exemplar_via(archive, mechs, exemplar, from_snapshot)
}

/// [`resolve_exemplar`] with the path forced: `from_snapshot` restores
/// the archived checkpoint first, otherwise the shard replays from boot.
/// Both paths must agree — the round-trip property test drives each.
///
/// # Errors
///
/// Same conditions as [`resolve_exemplar`], plus forcing the snapshot
/// path for an exemplar at or before `snap_idx` (already covered by the
/// checkpoint, so the watch could never arm).
pub fn resolve_exemplar_via(
    archive: &ShardArchive,
    mechs: &[Mechanism],
    exemplar: &Exemplar,
    from_snapshot: bool,
) -> Result<ExemplarResolution, String> {
    let target = exemplar.event_idx as usize;
    if target == 0 {
        return Err("exemplar predates the event stream (boot-time observation)".into());
    }
    if target > archive.log.events.len() {
        return Err(format!(
            "exemplar event index {target} past end of log ({} events)",
            archive.log.events.len()
        ));
    }
    let mut system = if from_snapshot {
        if target <= archive.snap_idx {
            return Err(format!(
                "exemplar event index {target} is inside the checkpoint (snap_idx {})",
                archive.snap_idx
            ));
        }
        System::from_snapshot(&archive.snapshot)
            .map_err(|e| format!("snapshot restore failed: {e:?}"))?
    } else {
        let mut system = System::try_new(archive.log.config.clone())
            .map_err(|e| format!("replay boot failed: {e:?}"))?;
        system.set_sketch_seed(archive.seed);
        system
    };
    system.sketch_watch(mechs.to_vec(), exemplar.event_idx);
    let start = if from_snapshot { archive.snap_idx } else { 0 };
    for event in &archive.log.events[start..target] {
        apply_event(&mut system, event);
    }
    let watched = system.sketch_watched().to_vec();
    let confirmed = watched.contains(&(exemplar.span, exemplar.ledger_seq));
    Ok(ExemplarResolution {
        shard_index: archive.index,
        from_snapshot,
        confirmed,
        watched,
    })
}

/// Writes a soak output dir: the merged sketch book plus one archive
/// per clean shard.
///
/// # Errors
///
/// A human-readable string naming the path that failed to write.
pub fn write_soak_dir(
    dir: &Path,
    merged: &SketchBook,
    archives: &[ShardArchive],
) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let merged_path = dir.join(MERGED_SKETCH_FILE);
    fs::write(&merged_path, merged.to_bytes())
        .map_err(|e| format!("write {}: {e}", merged_path.display()))?;
    for archive in archives {
        let path = dir.join(shard_file_name(archive.index));
        fs::write(&path, archive.to_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Loads the merged sketch book from a soak output dir.
///
/// # Errors
///
/// A human-readable string naming the file and the read/parse failure.
pub fn load_merged(dir: &Path) -> Result<SketchBook, String> {
    let path = dir.join(MERGED_SKETCH_FILE);
    let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    SketchBook::from_bytes(&bytes).map_err(|e| format!("parse {}: {e:?}", path.display()))
}

/// Loads every shard archive from a soak output dir, sorted by index.
///
/// # Errors
///
/// A human-readable string naming the file and the read/parse failure.
pub fn load_archives(dir: &Path) -> Result<Vec<ShardArchive>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    let mut archives = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("shard-") && name.ends_with(".ov")) {
            continue;
        }
        let path = entry.path();
        let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let archive = ShardArchive::from_bytes(&bytes)
            .map_err(|e| format!("parse {}: {e:?}", path.display()))?;
        archives.push(archive);
    }
    archives.sort_by_key(|a| a.index);
    Ok(archives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FleetWorkload, ShardPlan};
    use crate::shard::{run_shard, ShardBeat, ShardOutcome};
    use overhaul_sim::FLEET_QUANTILES;

    fn clean_archive(seed: u64) -> ShardArchive {
        let plan = ShardPlan::from_seed(seed, 0, &FleetWorkload::default());
        let report = run_shard(&plan, &ShardBeat::default());
        assert!(
            matches!(report.outcome, ShardOutcome::Ok { .. }),
            "seed {seed} must run clean: {:?}",
            report.outcome
        );
        ShardArchive {
            index: report.index,
            seed: report.seed,
            sketches: report.sketches,
            ledger: report.ledger,
            log: report.log.expect("clean shard keeps its log"),
            snap_idx: report.snap_idx,
            snapshot: report.snapshot.expect("clean shard keeps its snapshot"),
        }
    }

    #[test]
    fn archive_round_trips_through_bytes() {
        let archive = clean_archive(7);
        let decoded = ShardArchive::from_bytes(&archive.to_bytes()).expect("decode");
        assert_eq!(decoded.index, archive.index);
        assert_eq!(decoded.seed, archive.seed);
        assert_eq!(decoded.snap_idx, archive.snap_idx);
        assert_eq!(decoded.log.events, archive.log.events);
        assert_eq!(decoded.sketches.to_bytes(), archive.sketches.to_bytes());
        assert_eq!(decoded.ledger.head, archive.ledger.head);
        assert_eq!(decoded.snapshot.to_bytes(), archive.snapshot.to_bytes());
    }

    #[test]
    fn truncated_archive_errors_cleanly() {
        let bytes = clean_archive(7).to_bytes();
        assert!(ShardArchive::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn decide_exemplar_resolves_from_boot_and_snapshot() {
        let archive = clean_archive(7);
        let mechs = Mechanism::parse("decide").expect("decide parses");
        let sketch = archive.sketches.wall_merged(&mechs);
        assert!(sketch.count() > 0, "shard must sample decides");
        for (_, q) in FLEET_QUANTILES {
            let Some(exemplar) = sketch.exemplar_at(q) else {
                continue;
            };
            let boot = resolve_exemplar_via(&archive, &mechs, &exemplar, false).expect("boot path");
            assert!(
                boot.confirmed,
                "boot path must confirm span {} seq {} at event {} (watched {:?})",
                exemplar.span, exemplar.ledger_seq, exemplar.event_idx, boot.watched
            );
            if exemplar.event_idx as usize > archive.snap_idx {
                let snap =
                    resolve_exemplar_via(&archive, &mechs, &exemplar, true).expect("snap path");
                assert!(snap.confirmed, "snapshot path must agree with boot path");
            }
        }
    }

    #[test]
    fn out_of_range_exemplar_is_an_error_not_a_panic() {
        let archive = clean_archive(7);
        let mechs = Mechanism::parse("decide").expect("decide parses");
        let mut exemplar = archive
            .sketches
            .wall_merged(&mechs)
            .exemplar_at(0.99)
            .expect("exemplar");
        exemplar.event_idx = archive.log.events.len() as u64 + 1000;
        assert!(resolve_exemplar(&archive, &mechs, &exemplar).is_err());
        exemplar.event_idx = 0;
        assert!(resolve_exemplar(&archive, &mechs, &exemplar).is_err());
    }

    #[test]
    fn soak_dir_round_trips() {
        let archive = clean_archive(7);
        let merged = archive.sketches.clone();
        let dir = std::env::temp_dir().join(format!("ov-archive-test-{}", std::process::id()));
        write_soak_dir(&dir, &merged, std::slice::from_ref(&archive)).expect("write");
        let loaded = load_merged(&dir).expect("merged");
        assert_eq!(loaded.canonical_bytes(), merged.canonical_bytes());
        let archives = load_archives(&dir).expect("archives");
        assert_eq!(archives.len(), 1);
        assert_eq!(archives[0].seed, archive.seed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
