//! The append-only results journal a sweep checkpoints into.
//!
//! Same idioms as the serving budget ledger
//! ([`psr_core::serving::journal`] holds the shared primitives): a sealed
//! header line binding the journal to its plan, one sealed line per
//! completed cell, FNV-1a-64 checksums, longest-valid-prefix replay with
//! truncation of a torn tail, and `fsync` per record so a killed sweep
//! can never lose an acknowledged cell.
//!
//! The header carries the format version, the plan *fingerprint* and
//! the total cell count. Only a line that fails its checksum is torn: a
//! torn header means nothing was ever durable and the file restarts
//! fresh, and a torn cell line ends the replay there. A sealed line is
//! durable, so one this build cannot use — a header of another plan or
//! another format version, or a cell record that does not parse — is a
//! hard [`io::ErrorKind::InvalidData`] error that leaves the file's bytes
//! untouched: silently mixing two plans' cells would fabricate a frontier
//! nobody measured, and silently dropping a stale journal would discard
//! measured cells without a word.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use psr_core::serving::journal::{lossy_utf8_prefix, seal, unseal, LineSplitter};
use psr_obs::Histogram;

use crate::cell::CellResult;

/// Format name every version's header line starts with.
const FORMAT: &str = "psrfrontier";
/// Magic + version prefix of the journal header line. v2 cell specs
/// carry no top-`k` engine, and one-slot Exponential cells draw through
/// Definition 5's walk, so v1 cells are neither readable nor comparable.
const HEADER_TAG: &str = "psrfrontier v2";

/// An open results journal, positioned for appending.
#[derive(Debug)]
pub struct ResultsJournal {
    path: PathBuf,
    file: File,
    /// Per-append write+fsync latency; inert until `instrument` is called.
    fsync_latency: Histogram,
}

impl ResultsJournal {
    /// Opens (or creates) the journal at `path` for the plan identified
    /// by `fingerprint` expanding to `total_cells` cells. Returns the
    /// journal plus every cell replayed from the longest valid prefix
    /// (a torn tail is dropped and truncated away).
    ///
    /// A **sealed** header of another format version, plan fingerprint or
    /// cell count, and a sealed cell line that does not parse, are
    /// [`io::ErrorKind::InvalidData`] errors that leave the file as it
    /// was.
    pub fn open(
        path: impl AsRef<Path>,
        fingerprint: u64,
        total_cells: usize,
    ) -> io::Result<(Self, Vec<CellResult>)> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let content = lossy_utf8_prefix(bytes);

        let header = seal(&format!("{HEADER_TAG} {fingerprint:016x} {total_cells}"));
        let unusable = |what: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frontier journal {} {what}; delete it or point the sweep at a fresh journal",
                    path.display()
                ),
            )
        };
        let mut replayed = Vec::new();
        let mut valid_len = 0usize;
        let mut lines = LineSplitter::new(&content);
        // An empty file or a torn header: nothing was ever durable here,
        // so the journal starts fresh.
        if let Some(payload) = lines.next().and_then(unseal) {
            let Some(rest) = payload.strip_prefix(HEADER_TAG) else {
                let version = payload.strip_prefix(FORMAT).map(|rest| rest.split(' ').nth(1));
                return Err(unusable(match version {
                    Some(v) => format!(
                        "was written by {FORMAT} {}; this build reads {HEADER_TAG}",
                        v.unwrap_or("(no version)")
                    ),
                    None => "does not start with a frontier journal header".to_owned(),
                }));
            };
            let fields: Option<(u64, usize)> =
                rest.trim_start().split_once(' ').and_then(|(fp, total)| {
                    Some((u64::from_str_radix(fp, 16).ok()?, total.parse().ok()?))
                });
            let (fp, total) =
                fields.ok_or_else(|| unusable("has a malformed header".to_owned()))?;
            if fp != fingerprint || total != total_cells {
                return Err(unusable(format!(
                    "was written for plan {fp:016x} ({total} cells), not {fingerprint:016x} \
                     ({total_cells} cells)"
                )));
            }
            valid_len = lines.consumed_before_current();
            // Replay every sealed cell; the first torn line ends the
            // durable prefix.
            while let Some(payload) = lines.next().and_then(unseal) {
                match parse_cell(payload) {
                    Some(cell) if cell.spec.index < total_cells => {
                        replayed.push(cell);
                        valid_len = lines.consumed_before_current();
                    }
                    _ => {
                        return Err(unusable(format!(
                            "holds a sealed cell record this build cannot read, after {} \
                             readable cells",
                            replayed.len()
                        )))
                    }
                }
            }
        }

        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        if valid_len == 0 {
            file.write_all(header.as_bytes())?;
            file.sync_data()?;
        }
        Ok((ResultsJournal { path, file, fsync_latency: Histogram::default() }, replayed))
    }

    /// Attaches a latency histogram recording each append's write+fsync
    /// time. Telemetry observes, never participates: the journal's bytes
    /// and durability are identical with or without a live histogram.
    pub fn instrument(&mut self, fsync_latency: Histogram) {
        self.fsync_latency = fsync_latency;
    }

    /// Appends one completed cell and `fsync`s: once this returns, the
    /// cell survives any kill.
    pub fn append(&mut self, cell: &CellResult) -> io::Result<()> {
        let json = serde_json::to_string(cell)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // The clock is only read when the histogram is live, so an
        // uninstrumented append pays nothing.
        let start = self.fsync_latency.is_enabled().then(Instant::now);
        self.file.write_all(seal(&format!("C {json}")).as_bytes())?;
        self.file.sync_data()?;
        if let Some(start) = start {
            self.fsync_latency
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Ok(())
    }

    /// The journal's on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One replayed cell, parsed from a valid journal line.
fn parse_cell(payload: &str) -> Option<CellResult> {
    serde_json::from_str(payload.strip_prefix("C ")?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use psr_datasets::toy::karate_club;

    use crate::plan::ExperimentPlan;
    use crate::run_cell;

    /// A unique scratch path (no tempfile crate in the offline vendor
    /// set): per-process id plus a per-test counter under the OS temp dir.
    fn scratch_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("psr-frontier-{tag}-{}-{n}.journal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn sample_cells(count: usize) -> (ExperimentPlan, Vec<CellResult>) {
        let plan = ExperimentPlan::toy();
        let graph = Arc::new(karate_club());
        let cells = plan
            .expand()
            .into_iter()
            .take(count)
            .map(|spec| run_cell(&plan, &spec, &graph).unwrap())
            .collect();
        (plan, cells)
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = scratch_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        let (plan, cells) = sample_cells(2);
        let fp = plan.fingerprint();
        let total = plan.expand().len();
        {
            let (mut journal, replayed) = ResultsJournal::open(&path, fp, total).unwrap();
            assert!(replayed.is_empty());
            for cell in &cells {
                journal.append(cell).unwrap();
            }
        } // dropped without any shutdown hook: durability is append-time fsync
        let (_, replayed) = ResultsJournal::open(&path, fp, total).unwrap();
        assert_eq!(replayed, cells);
    }

    #[test]
    fn corrupt_tail_is_dropped_and_truncated() {
        let path = scratch_path("tail");
        let _cleanup = Cleanup(path.clone());
        let (plan, cells) = sample_cells(1);
        let fp = plan.fingerprint();
        let total = plan.expand().len();
        {
            let (mut journal, _) = ResultsJournal::open(&path, fp, total).unwrap();
            journal.append(&cells[0]).unwrap();
        }
        // Simulate a crash mid-append: a torn line without its newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"C {\"spec\":{\"index\":1").unwrap();
        drop(file);
        let before = std::fs::metadata(&path).unwrap().len();
        let (_, replayed) = ResultsJournal::open(&path, fp, total).unwrap();
        assert_eq!(replayed, cells, "torn cell dropped, valid prefix kept");
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "the torn tail must be truncated away");
    }

    #[test]
    fn plan_mismatch_is_a_hard_error() {
        let path = scratch_path("mismatch");
        let _cleanup = Cleanup(path.clone());
        let (plan, _) = sample_cells(0);
        let fp = plan.fingerprint();
        let total = plan.expand().len();
        drop(ResultsJournal::open(&path, fp, total).unwrap());
        let err = ResultsJournal::open(&path, fp ^ 1, total).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("was written for plan"), "{err}");
        let err = ResultsJournal::open(&path, fp, total + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn stale_journals_are_refused_untouched() {
        // A sealed line is durable: an older format's header, or a cell
        // record of an older schema under a matching header, must stop the
        // sweep with a message rather than be dropped as a torn tail.
        let path = scratch_path("stale");
        let _cleanup = Cleanup(path.clone());
        let (plan, _) = sample_cells(0);
        let fp = plan.fingerprint();
        let total = plan.expand().len();
        let header = format!("{fp:016x} {total}");
        let stale_cell = seal(r#"C {"spec":{"index":0,"engine":"peel"}}"#);
        for (bytes, reason) in [
            (seal(&format!("psrfrontier v1 {header}")), "was written by psrfrontier v1"),
            (seal(&format!("{HEADER_TAG} {header}")) + &stale_cell, "cannot read"),
            (seal("ledger v1"), "does not start with a frontier journal header"),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let err = ResultsJournal::open(&path, fp, total).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(message.contains(reason) && message.contains("delete it"), "{message}");
            assert!(message.contains(&path.display().to_string()), "{message}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes.as_bytes(), "left untouched");
        }
    }

    #[test]
    fn foreign_file_restarts_fresh() {
        let path = scratch_path("foreign");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, b"not a journal\n\xff\x00tail").unwrap();
        let (journal, replayed) = ResultsJournal::open(&path, 7, 3).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(journal.path(), path.as_path());
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(HEADER_TAG), "rewritten with a fresh header");
    }
}
