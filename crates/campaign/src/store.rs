//! The append-only, truncation-tolerant JSONL result store.
//!
//! One line per measured cell:
//!
//! ```json
//! {"key":"<16-hex content hash>","cell":{...},"trials_run":8,"measurement":{...}}
//! ```
//!
//! The store is the campaign engine's unit of durability. Records are
//! appended — never rewritten — in cell-expansion order, each with its own
//! `write` call, so a killed run leaves a valid prefix plus at most one
//! half-written final line. [`ResultStore::open`] recovers by parsing the
//! intact prefix and truncating the damaged tail; resuming then re-runs
//! exactly the missing cells, which (because measurements and the trial-seed
//! derivation are deterministic) reproduces the uninterrupted store byte for
//! byte.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use dradio_scenario::{Measurement, ScenarioSpec};
use serde::{Deserialize, Serialize, Value};

use crate::error::{CampaignError, Result};
use crate::spec::{CampaignSpec, CellSpec};

/// One stored measurement: the cell, how many trials actually ran (relevant
/// under adaptive allocation), and the aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's content-hash key ([`CellSpec::key`]).
    pub key: String,
    /// The measured cell.
    pub cell: CellSpec,
    /// Number of trials the measurement aggregates.
    pub trials_run: usize,
    /// The aggregated measurement.
    pub measurement: Measurement,
}

impl Serialize for CellRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("key".into(), self.key.to_value()),
            ("cell".into(), self.cell.to_value()),
            ("trials_run".into(), self.trials_run.to_value()),
            ("measurement".into(), self.measurement.to_value()),
        ])
    }
}

impl Deserialize for CellRecord {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::new(format!("CellRecord is missing {name:?}")))
        };
        Ok(CellRecord {
            key: String::from_value(field("key")?)?,
            cell: CellSpec::from_value(field("cell")?)?,
            trials_run: usize::from_value(field("trials_run")?)?,
            measurement: Measurement::from_value(field("measurement")?)?,
        })
    }
}

/// The campaign result store: an in-memory index over an (optional)
/// append-only JSONL file.
#[derive(Debug)]
pub struct ResultStore {
    records: Vec<CellRecord>,
    index: BTreeMap<String, usize>,
    file: Option<File>,
    path: Option<PathBuf>,
    repaired_tail: usize,
}

impl ResultStore {
    /// A purely in-memory store (no persistence) — what the experiment
    /// harness uses.
    pub fn in_memory() -> Self {
        ResultStore {
            records: Vec::new(),
            index: BTreeMap::new(),
            file: None,
            path: None,
            repaired_tail: 0,
        }
    }

    /// Opens (or creates) a file-backed store.
    ///
    /// An existing file is loaded as the resume state. A half-written final
    /// line — the signature of a killed run — is discarded and truncated away
    /// so subsequent appends continue from the last intact record.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Store`] on I/O failures, malformed non-final lines,
    /// or records whose stored key does not match their cell content (a
    /// hand-edited or format-drifted store).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CampaignError::store(format!("cannot open {}: {e}", path.display())))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| CampaignError::store(format!("cannot read {}: {e}", path.display())))?;

        let mut records: Vec<CellRecord> = Vec::new();
        let mut valid_bytes = 0usize;
        let mut lines = text.split_inclusive('\n').peekable();
        while let Some(line) = lines.next() {
            let is_last = lines.peek().is_none();
            let terminated = line.ends_with('\n');
            match serde_json::from_str::<CellRecord>(line.trim_end_matches('\n')) {
                Ok(record) if terminated => {
                    if record.cell.key() != record.key {
                        return Err(CampaignError::store(format!(
                            "{}: record {} has key {} but its cell hashes to {}; \
                             the store was edited or the format drifted",
                            path.display(),
                            records.len(),
                            record.key,
                            record.cell.key(),
                        )));
                    }
                    valid_bytes += line.len();
                    records.push(record);
                }
                // Only an *unterminated* final line can be the torn tail of
                // a killed append: each record is written with its trailing
                // newline in a single call, and JSON lines carry no raw
                // newlines. Drop it and let resume re-measure that cell.
                _ if is_last && !terminated => break,
                // A newline-terminated line that fails to parse — anywhere,
                // including the last line — is external corruption, never a
                // torn append; refuse to silently destroy it.
                Err(e) => {
                    return Err(CampaignError::store(format!(
                        "{}: malformed record on line {}: {e}",
                        path.display(),
                        records.len() + 1,
                    )));
                }
                // split_inclusive only leaves the final line unterminated.
                Ok(_) => unreachable!("unterminated interior line"),
            }
        }
        let repaired_tail = text.len() - valid_bytes;
        if repaired_tail > 0 {
            file.set_len(valid_bytes as u64).map_err(|e| {
                CampaignError::store(format!(
                    "cannot truncate torn tail of {}: {e}",
                    path.display()
                ))
            })?;
        }

        let index = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.key.clone(), i))
            .collect();
        Ok(ResultStore {
            records,
            index,
            file: Some(file),
            path: Some(path),
            repaired_tail,
        })
    }

    /// Torn-tail bytes [`ResultStore::open`] truncated away to recover this
    /// store — nonzero exactly when the previous writer died mid-append.
    /// Always `0` for in-memory stores.
    pub fn repaired_tail_bytes(&self) -> usize {
        self.repaired_tail
    }

    /// The backing file path, if the store is persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in append (= cell-expansion) order.
    pub fn records(&self) -> &[CellRecord] {
        &self.records
    }

    /// Whether a cell key is already measured.
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Looks a record up by cell key.
    pub fn get(&self, key: &str) -> Option<&CellRecord> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// Looks a record up by the scenario it measured (linear scan; stores are
    /// small). Table-rendering code uses this to fetch measurements in
    /// presentation order, independent of expansion order.
    pub fn for_scenario(&self, scenario: &ScenarioSpec) -> Option<&CellRecord> {
        self.records.iter().find(|r| &r.cell.scenario == scenario)
    }

    /// Appends a record (and persists it, for file-backed stores).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Store`] on duplicate keys or write failures.
    pub fn append(&mut self, record: CellRecord) -> Result<()> {
        if self.contains(&record.key) {
            return Err(CampaignError::store(format!(
                "duplicate append of cell {} ({})",
                record.key,
                record.cell.label(),
            )));
        }
        if let Some(file) = &mut self.file {
            // lint: allow(D4) -- record serialization is infallible: every
            // field round-trips through the pinned store serde tests
            let mut line = serde_json::to_string(&record).expect("records always serialize");
            line.push('\n');
            // One write call per record: a kill can tear at most the final
            // line, which open() knows how to discard.
            file.write_all(line.as_bytes()).map_err(|e| {
                CampaignError::store(format!("cannot append record {}: {e}", record.key))
            })?;
        }
        self.index.insert(record.key.clone(), self.records.len());
        self.records.push(record);
        Ok(())
    }

    /// Compacts a file-backed store against a campaign spec: rewrites the
    /// file keeping only the records in `spec`'s expansion, in expansion
    /// order. Records from superseded campaign versions (keys no longer in
    /// the expansion) are dropped; kept record lines are carried over **as
    /// their original bytes** (not re-serialized), so reports over the
    /// compacted store are identical and compaction is idempotent.
    ///
    /// The rewrite goes through a sibling temp file that atomically replaces
    /// the original, and the original is **never truncated on failure**: the
    /// store must exist and load cleanly first — a key-integrity failure (or
    /// any other load error) aborts the compaction with the file untouched.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Store`] if the store is missing, fails to load, or
    /// fails to rewrite, and [`CampaignError::Spec`] if the campaign fails
    /// to expand.
    pub fn compact(spec: &CampaignSpec, path: impl AsRef<Path>) -> Result<CompactReport> {
        let path = path.as_ref();
        // `open` would create a missing file; compacting nothing into an
        // empty store silently would hide a typo'd path.
        if !path.exists() {
            return Err(CampaignError::store(format!(
                "cannot compact {}: the store does not exist",
                path.display()
            )));
        }
        // Refuses corrupted or tampered stores before any byte is written.
        let store = ResultStore::open(path)?;
        let cells = spec.expand()?;

        // The kept lines are the original bytes: open() leaves the file as
        // one newline-terminated line per loaded record (any torn tail was
        // truncated away), so lines and records zip one to one.
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::store(format!("cannot read {}: {e}", path.display())))?;
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        debug_assert_eq!(lines.len(), store.len());

        let mut kept_lines = String::new();
        let mut kept = 0usize;
        let mut missing = 0usize;
        for cell in &cells {
            match store.index.get(&cell.key()) {
                Some(&i) => {
                    kept_lines.push_str(lines[i]);
                    kept += 1;
                }
                None => missing += 1,
            }
        }
        let dropped = store.len() - kept;
        drop(store);

        let tmp_path = {
            let mut p = path.as_os_str().to_owned();
            p.push(".compact-tmp");
            PathBuf::from(p)
        };
        std::fs::write(&tmp_path, kept_lines).map_err(|e| {
            CampaignError::store(format!("cannot write {}: {e}", tmp_path.display()))
        })?;
        std::fs::rename(&tmp_path, path).map_err(|e| {
            CampaignError::store(format!(
                "cannot replace {} with its compaction: {e}",
                path.display()
            ))
        })?;
        Ok(CompactReport {
            cells: cells.len(),
            kept,
            dropped,
            missing,
        })
    }

    /// Merges shard stores into `out`: unions the keyed records of every
    /// input (plus `out` itself, when it already exists — so a merge is
    /// resumable and idempotent) and writes them in `spec`'s expansion
    /// order, each kept line carried over **as its original bytes**. Because
    /// measurements are pure functions of their cell spec, the fleet's
    /// shard stores union into exactly the store a single-process run
    /// writes, byte for byte.
    ///
    /// Overlapping shards are fine as long as they agree: byte-identical
    /// duplicate records deduplicate (a cell re-assigned after a worker
    /// crash lands in two shards), while two records for the same key with
    /// different bytes are a hard error — that means non-deterministic or
    /// tampered inputs, and silently picking one would hide it. Each input
    /// loads through [`ResultStore::open`], so torn tails are truncated
    /// like any killed-run store and key-integrity failures refuse the
    /// merge before `out` is touched. The rewrite goes through a sibling
    /// temp file that atomically replaces `out`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Store`] when `inputs` is empty, an input is missing,
    /// an input fails its load-time integrity checks, two inputs conflict on
    /// a key, or the rewrite fails; [`CampaignError::Spec`] if the campaign
    /// fails to expand.
    pub fn merge(
        spec: &CampaignSpec,
        out: impl AsRef<Path>,
        inputs: &[impl AsRef<Path>],
    ) -> Result<MergeReport> {
        let out = out.as_ref();
        if inputs.is_empty() {
            return Err(CampaignError::store(
                "merge needs at least one input shard store",
            ));
        }
        let mut sources: Vec<PathBuf> = Vec::new();
        if out.exists() {
            sources.push(out.to_path_buf());
        }
        for input in inputs {
            let input = input.as_ref();
            // `open` would create a missing file; merging a typo'd shard
            // path as an empty store would silently lose its records.
            if !input.exists() {
                return Err(CampaignError::store(format!(
                    "cannot merge {}: the shard store does not exist",
                    input.display()
                )));
            }
            sources.push(input.to_path_buf());
        }

        // key -> (original line bytes, first source holding it).
        let mut lines_by_key: BTreeMap<String, (String, PathBuf)> = BTreeMap::new();
        let mut duplicates = 0usize;
        for source in &sources {
            // Load-time integrity: key checks reject tampered shards, torn
            // tails truncate exactly as a resume would.
            let store = ResultStore::open(source)?;
            let text = std::fs::read_to_string(source).map_err(|e| {
                CampaignError::store(format!("cannot read {}: {e}", source.display()))
            })?;
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            debug_assert_eq!(lines.len(), store.len());
            for (record, line) in store.records().iter().zip(&lines) {
                match lines_by_key.get(&record.key) {
                    None => {
                        lines_by_key.insert(record.key.clone(), (line.to_string(), source.clone()));
                    }
                    Some((kept, _)) if kept == line => duplicates += 1,
                    Some((_, first)) => {
                        return Err(CampaignError::store(format!(
                            "conflicting records for cell {} ({}): {} and {} disagree \
                             byte-for-byte; refusing to pick one",
                            record.key,
                            record.cell.label(),
                            first.display(),
                            source.display(),
                        )));
                    }
                }
            }
        }

        let cells = spec.expand()?;
        let mut kept_lines = String::new();
        let mut merged = 0usize;
        let mut missing = 0usize;
        for cell in &cells {
            match lines_by_key.get(&cell.key()) {
                Some((line, _)) => {
                    kept_lines.push_str(line);
                    merged += 1;
                }
                None => missing += 1,
            }
        }
        let stale = lines_by_key.len() - merged;

        let tmp_path = {
            let mut p = out.as_os_str().to_owned();
            p.push(".merge-tmp");
            PathBuf::from(p)
        };
        std::fs::write(&tmp_path, kept_lines).map_err(|e| {
            CampaignError::store(format!("cannot write {}: {e}", tmp_path.display()))
        })?;
        std::fs::rename(&tmp_path, out).map_err(|e| {
            CampaignError::store(format!(
                "cannot replace {} with the merge: {e}",
                out.display()
            ))
        })?;
        Ok(MergeReport {
            cells: cells.len(),
            shards: inputs.len(),
            merged,
            duplicates,
            stale,
            missing,
        })
    }

    /// Read-only integrity inspection of a store file: locates a torn tail,
    /// verifies key integrity line by line, and finds duplicate keys and
    /// malformed records — reporting without modifying a byte (unlike
    /// [`ResultStore::open`], which truncates the tail in place). Operators
    /// run it as `repro campaign fsck --store <path>` to inspect shard
    /// stores before a `merge`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Store`] only when the file is missing or unreadable;
    /// every *finding* lands in the report instead of erroring.
    pub fn fsck(path: impl AsRef<Path>) -> Result<FsckReport> {
        let path = path.as_ref();
        if !path.exists() {
            return Err(CampaignError::store(format!(
                "cannot fsck {}: the store does not exist",
                path.display()
            )));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::store(format!("cannot read {}: {e}", path.display())))?;

        let mut report = FsckReport::default();
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        let mut offset = 0u64;
        let mut line_no = 0usize;
        let mut lines = text.split_inclusive('\n').peekable();
        while let Some(line) = lines.next() {
            line_no += 1;
            let is_last = lines.peek().is_none();
            let terminated = line.ends_with('\n');
            match serde_json::from_str::<CellRecord>(line.trim_end_matches('\n')) {
                Ok(record) if terminated => {
                    if record.cell.key() != record.key {
                        report.key_mismatches.push(format!(
                            "line {line_no}: stored key {} but the cell hashes to {}",
                            record.key,
                            record.cell.key()
                        ));
                    }
                    if let Some(first) = seen.insert(record.key.clone(), line_no) {
                        report.duplicate_keys.push(format!(
                            "line {line_no}: key {} already stored on line {first}",
                            record.key
                        ));
                    }
                    report.records += 1;
                }
                // The signature of a killed append: open() would truncate
                // exactly these bytes.
                _ if is_last && !terminated => {
                    report.torn_tail_bytes = line.len();
                    report.torn_tail_offset = Some(offset);
                }
                // Terminated-but-unparseable is external corruption; open()
                // refuses such stores outright.
                Err(_) => report.malformed_lines.push(line_no),
                // split_inclusive only leaves the final line unterminated.
                Ok(_) => unreachable!("unterminated interior line"),
            }
            offset += line.len() as u64;
        }
        Ok(report)
    }
}

/// What a [`ResultStore::fsck`] inspection found. `Default` is a clean
/// report over an empty store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Intact, newline-terminated records.
    pub records: usize,
    /// Bytes in an unterminated torn tail (`0`: none).
    pub torn_tail_bytes: usize,
    /// Byte offset where the torn tail starts, when one exists.
    pub torn_tail_offset: Option<u64>,
    /// Duplicate-key findings, one rendered line each.
    pub duplicate_keys: Vec<String>,
    /// Key-integrity findings (stored key ≠ cell content hash), one
    /// rendered line each.
    pub key_mismatches: Vec<String>,
    /// 1-based line numbers of newline-terminated lines that do not parse
    /// as records.
    pub malformed_lines: Vec<usize>,
}

impl FsckReport {
    /// No findings: [`ResultStore::open`] would load this store unchanged.
    pub fn is_clean(&self) -> bool {
        self.torn_tail_bytes == 0
            && self.duplicate_keys.is_empty()
            && self.key_mismatches.is_empty()
            && self.malformed_lines.is_empty()
    }

    /// Total findings across every category.
    pub fn findings(&self) -> usize {
        usize::from(self.torn_tail_bytes > 0)
            + self.duplicate_keys.len()
            + self.key_mismatches.len()
            + self.malformed_lines.len()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} intact record(s)", self.records)?;
        if let Some(offset) = self.torn_tail_offset {
            writeln!(
                f,
                "torn tail: {} byte(s) starting at offset {offset} — a killed append; \
                 open() truncates it and resume re-measures that cell",
                self.torn_tail_bytes
            )?;
        }
        for finding in &self.key_mismatches {
            writeln!(f, "key mismatch: {finding}")?;
        }
        for finding in &self.duplicate_keys {
            writeln!(f, "duplicate key: {finding}")?;
        }
        for line in &self.malformed_lines {
            writeln!(f, "malformed record on line {line}")?;
        }
        if self.is_clean() {
            write!(f, "clean: the store loads as-is")
        } else {
            write!(f, "{} finding(s)", self.findings())
        }
    }
}

/// What a [`ResultStore::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Cells in the campaign's expansion.
    pub cells: usize,
    /// Records kept (present in both the store and the expansion).
    pub kept: usize,
    /// Records dropped (stored, but no longer in the expansion).
    pub dropped: usize,
    /// Expansion cells with no stored record yet (left for a future run).
    pub missing: usize,
}

impl fmt::Display for CompactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kept {} of {} cells, dropped {} stale records, {} not yet measured",
            self.kept, self.cells, self.dropped, self.missing
        )
    }
}

/// What a [`ResultStore::merge`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeReport {
    /// Cells in the campaign's expansion.
    pub cells: usize,
    /// Input shard stores unioned (not counting an existing output store).
    pub shards: usize,
    /// Expansion cells written to the merged store.
    pub merged: usize,
    /// Byte-identical duplicate records collapsed across inputs.
    pub duplicates: usize,
    /// Distinct records dropped because their key left the expansion.
    pub stale: usize,
    /// Expansion cells no input had measured yet.
    pub missing: usize,
}

impl fmt::Display for MergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merged {} of {} cells from {} shards ({} duplicates collapsed, \
             {} stale records dropped, {} not yet measured)",
            self.merged, self.cells, self.shards, self.duplicates, self.stale, self.missing
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrialPolicy;
    use dradio_core::algorithms::GlobalAlgorithm;
    use dradio_scenario::{AdversarySpec, Completion, ProblemSpec, Summary, TopologySpec};

    fn record(n: usize) -> CellRecord {
        let cell = CellSpec {
            scenario: ScenarioSpec {
                topology: TopologySpec::Clique { n },
                algorithm: GlobalAlgorithm::Bgi.into(),
                adversary: AdversarySpec::StaticNone,
                problem: ProblemSpec::GlobalFrom(0),
                seed: 1,
                max_rounds: Some(100),
                collision_detection: false,
            },
            trials: TrialPolicy::Fixed(2),
            record_mode: dradio_scenario::RecordMode::None,
            curve: false,
        };
        CellRecord {
            key: cell.key(),
            cell,
            trials_run: 2,
            measurement: Measurement {
                rounds: Summary::from_counts(&[n, n + 2]),
                completion: Completion {
                    completed: 2,
                    trials: 2,
                },
                mean_collisions: 0.5,
                contention: None,
            },
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dradio-campaign-store-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn in_memory_stores_index_by_key() {
        let mut store = ResultStore::in_memory();
        assert!(store.is_empty());
        let r = record(8);
        let key = r.key.clone();
        store.append(r.clone()).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(&key));
        assert_eq!(store.get(&key), Some(&r));
        assert_eq!(store.for_scenario(&r.cell.scenario), Some(&r));
        assert!(store.for_scenario(&record(16).cell.scenario).is_none());
        // Duplicate appends are programming errors, not silent overwrites.
        assert!(store.append(r).is_err());
    }

    #[test]
    fn file_backed_store_round_trips() {
        let path = temp_path("roundtrip");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
            store.append(record(16)).unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.records(), &[record(8), record(16)]);
        assert_eq!(store.path(), Some(path.as_path()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = temp_path("torn");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
            store.append(record(16)).unwrap();
        }
        // Simulate a kill mid-append: chop the file inside the last line.
        let full = std::fs::read_to_string(&path).unwrap();
        let cut = full.len() - 17;
        std::fs::write(&path, &full[..cut]).unwrap();

        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.records(), &[record(8)], "only the intact prefix");
        assert!(store.repaired_tail_bytes() > 0, "the repair is reported");
        // The damaged bytes are gone from disk too.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(on_disk.ends_with('\n'));
        assert_eq!(on_disk.lines().count(), 1);
        // A clean reopen reports no repair.
        assert_eq!(ResultStore::open(&path).unwrap().repaired_tail_bytes(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsck_reports_a_clean_store_without_modifying_it() {
        let path = temp_path("fsck-clean");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
            store.append(record(16)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let report = ResultStore::fsck(&path).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.records, 2);
        assert_eq!(report.findings(), 0);
        assert!(report.to_string().contains("clean"), "{report}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "fsck never writes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsck_locates_a_torn_tail_without_repairing_it() {
        let path = temp_path("fsck-torn");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
            store.append(record(16)).unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        let cut = full.len() - 17;
        std::fs::write(&path, &full[..cut]).unwrap();
        let first_line_len = full.lines().next().unwrap().len() + 1;

        let bytes = std::fs::read(&path).unwrap();
        let report = ResultStore::fsck(&path).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.records, 1);
        assert_eq!(report.torn_tail_bytes, cut - first_line_len);
        assert_eq!(report.torn_tail_offset, Some(first_line_len as u64));
        assert!(report.to_string().contains("torn tail"), "{report}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "fsck reports the tear but leaves repair to open()"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsck_finds_duplicates_key_mismatches_and_malformed_lines() {
        let path = temp_path("fsck-findings");
        let good = serde_json::to_string(&record(8)).unwrap();
        let mut forged = record(16);
        forged.key = "0000000000000000".into();
        let forged = serde_json::to_string(&forged).unwrap();
        let text = format!("{good}\n{good}\n{forged}\nthis is not json\n");
        std::fs::write(&path, &text).unwrap();

        let report = ResultStore::fsck(&path).unwrap();
        assert_eq!(report.records, 3, "duplicates and forgeries still parse");
        assert_eq!(report.duplicate_keys.len(), 1, "{report}");
        assert!(report.duplicate_keys[0].contains("line 2"), "{report}");
        assert_eq!(report.key_mismatches.len(), 1, "{report}");
        assert!(report.key_mismatches[0].contains("0000000000000000"));
        assert_eq!(report.malformed_lines, vec![4]);
        assert_eq!(report.findings(), 3);
        assert!(report.to_string().contains("3 finding(s)"), "{report}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "fsck never writes"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsck_refuses_a_missing_store() {
        let path = temp_path("fsck-missing");
        assert!(ResultStore::fsck(&path).is_err());
        assert!(!path.exists(), "fsck must not create the file");
    }

    #[test]
    fn terminated_malformed_final_line_is_a_hard_error() {
        // A line that ends in '\n' but fails to parse cannot be a torn
        // append (records are written newline-included in one call); it must
        // be reported, not silently truncated away.
        let path = temp_path("terminated-garbage");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("this is not json\n");
        std::fs::write(&path, &text).unwrap();
        assert!(ResultStore::open(&path).is_err());
        // The file is untouched — nothing was truncated.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_interior_lines_are_hard_errors() {
        let path = temp_path("interior");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = format!("this is not json\n{text}");
        std::fs::write(&path, text).unwrap();
        assert!(ResultStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// A campaign whose expansion is exactly the `record(n)` cells for the
    /// given sizes, in order.
    fn campaign_over(sizes: &[usize]) -> CampaignSpec {
        let mut spec = CampaignSpec::named("compaction").seed(1);
        for &n in sizes {
            spec = spec.group(
                crate::spec::SweepGroup::cell(
                    TopologySpec::Clique { n },
                    GlobalAlgorithm::Bgi,
                    AdversarySpec::StaticNone,
                    ProblemSpec::GlobalFrom(0),
                )
                .trials(TrialPolicy::Fixed(2))
                .rounds(crate::spec::RoundsRule::Fixed(100)),
            );
        }
        spec
    }

    #[test]
    fn compact_keeps_expansion_records_in_expansion_order() {
        let path = temp_path("compact");
        {
            let mut store = ResultStore::open(&path).unwrap();
            // A stale record (not in the spec), plus two live ones appended
            // in the *reverse* of expansion order.
            store.append(record(64)).unwrap();
            store.append(record(16)).unwrap();
            store.append(record(8)).unwrap();
        }
        let spec = campaign_over(&[8, 16, 32]);
        // Sanity: the synthetic records' keys match the spec's cells.
        let cells = spec.expand().unwrap();
        assert_eq!(cells[0].key(), record(8).key);

        let report = ResultStore::compact(&spec, &path).unwrap();
        assert_eq!(
            report,
            CompactReport {
                cells: 3,
                kept: 2,
                dropped: 1,
                missing: 1,
            }
        );
        assert!(report.to_string().contains("kept 2 of 3"));

        let store = ResultStore::open(&path).unwrap();
        assert_eq!(
            store.records(),
            &[record(8), record(16)],
            "expansion order, stale record dropped"
        );
        // Kept lines are byte-identical: compacting an already-compact
        // store is the identity.
        let bytes = std::fs::read(&path).unwrap();
        ResultStore::compact(&spec, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_requires_an_existing_store() {
        let path = temp_path("compact-missing");
        assert!(
            ResultStore::compact(&campaign_over(&[8]), &path).is_err(),
            "compacting a nonexistent store must fail, not create one"
        );
        assert!(!path.exists(), "no empty store left behind");
    }

    #[test]
    fn compact_preserves_original_line_bytes_verbatim() {
        // A measurement whose floats would not re-serialize to the same
        // bytes (completion_rate hand-rounded to 0.67): the cell is
        // untouched so the key check passes, and compaction must carry the
        // line over verbatim instead of re-serializing (and so rewriting)
        // it.
        let path = temp_path("compact-verbatim");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let odd = text.replace("\"completion_rate\":1.0", "\"completion_rate\":0.67");
        assert_ne!(text, odd);
        std::fs::write(&path, &odd).unwrap();

        ResultStore::compact(&campaign_over(&[8]), &path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            odd,
            "kept lines are original bytes, not a re-serialization"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_refuses_to_touch_a_corrupted_store() {
        let path = temp_path("compact-corrupt");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
            store.append(record(16)).unwrap();
        }
        // Tamper with a cell but keep its stored key: the key-integrity
        // check must reject the store and leave every byte alone.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"n\":8", "\"n\":12", 1);
        std::fs::write(&path, &tampered).unwrap();
        assert!(ResultStore::compact(&campaign_over(&[8, 16]), &path).is_err());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            tampered,
            "a failed compaction must not truncate or rewrite the store"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Writes `records` to a fresh temp store and returns its path.
    fn shard_with(tag: &str, records: &[CellRecord]) -> PathBuf {
        let path = temp_path(tag);
        let mut store = ResultStore::open(&path).unwrap();
        for record in records {
            store.append(record.clone()).unwrap();
        }
        path
    }

    #[test]
    fn merge_unions_shards_in_expansion_order() {
        // Shards hold disjoint pieces of the campaign, out of expansion
        // order; the merged store is the single-process store: every cell,
        // expansion order, original bytes.
        let a = shard_with("merge-a", &[record(16)]);
        let b = shard_with("merge-b", &[record(8)]);
        let out = temp_path("merge-out");
        let spec = campaign_over(&[8, 16]);
        let report = ResultStore::merge(&spec, &out, &[&a, &b]).unwrap();
        assert_eq!(
            report,
            MergeReport {
                cells: 2,
                shards: 2,
                merged: 2,
                duplicates: 0,
                stale: 0,
                missing: 0,
            }
        );
        assert!(report.to_string().contains("merged 2 of 2 cells"));
        let merged = ResultStore::open(&out).unwrap();
        assert_eq!(merged.records(), &[record(8), record(16)]);

        // The merged bytes are exactly what appending in expansion order
        // produces — the single-process store.
        let reference = shard_with("merge-ref", &[record(8), record(16)]);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&reference).unwrap()
        );

        // Merging again over the existing output is the identity (the
        // output participates as a source, its records deduplicate).
        let again = ResultStore::merge(&spec, &out, &[&a, &b]).unwrap();
        assert_eq!(again.merged, 2);
        assert_eq!(again.duplicates, 2);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&reference).unwrap()
        );
        for p in [a, b, out, reference] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merge_deduplicates_identical_overlapping_records() {
        // A cell re-assigned after a worker crash lands in both shards with
        // byte-identical records; the union keeps one copy.
        let a = shard_with("merge-dup-a", &[record(8), record(16)]);
        let b = shard_with("merge-dup-b", &[record(16)]);
        let out = temp_path("merge-dup-out");
        let report = ResultStore::merge(&campaign_over(&[8, 16]), &out, &[&a, &b]).unwrap();
        assert_eq!(report.merged, 2);
        assert_eq!(report.duplicates, 1);
        assert_eq!(
            ResultStore::open(&out).unwrap().records(),
            &[record(8), record(16)]
        );
        for p in [a, b, out] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merge_refuses_conflicting_records_for_one_key() {
        // Same cell (so the key-integrity check passes) but different
        // measurement bytes: deterministic inputs can never produce this, so
        // the merge must refuse rather than pick a side.
        let a = shard_with("merge-conflict-a", &[record(8)]);
        let b = shard_with("merge-conflict-b", &[record(8)]);
        let text = std::fs::read_to_string(&b).unwrap();
        let tampered = text.replace("\"completion_rate\":1.0", "\"completion_rate\":0.67");
        assert_ne!(text, tampered);
        std::fs::write(&b, tampered).unwrap();

        let out = temp_path("merge-conflict-out");
        let err = ResultStore::merge(&campaign_over(&[8]), &out, &[&a, &b]).unwrap_err();
        assert!(err.to_string().contains("conflicting records"), "{err}");
        assert!(!out.exists(), "a refused merge must not create the output");
        for p in [a, b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merge_tolerates_a_torn_tail_in_one_shard() {
        // A worker killed mid-append leaves a torn final line in its shard;
        // the merge treats it like any killed-run store: the intact prefix
        // merges, the torn cell counts as missing.
        let a = shard_with("merge-torn-a", &[record(8)]);
        let b = shard_with("merge-torn-b", &[record(16), record(32)]);
        let full = std::fs::read_to_string(&b).unwrap();
        std::fs::write(&b, &full[..full.len() - 17]).unwrap();

        let out = temp_path("merge-torn-out");
        let report = ResultStore::merge(&campaign_over(&[8, 16, 32]), &out, &[&a, &b]).unwrap();
        assert_eq!(report.merged, 2);
        assert_eq!(report.missing, 1, "the torn record is simply unmeasured");
        assert_eq!(
            ResultStore::open(&out).unwrap().records(),
            &[record(8), record(16)]
        );
        for p in [a, b, out] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merge_with_no_inputs_is_a_usage_error() {
        let out = temp_path("merge-empty-out");
        let inputs: [&Path; 0] = [];
        let err = ResultStore::merge(&campaign_over(&[8]), &out, &inputs).unwrap_err();
        assert!(err.to_string().contains("at least one input"), "{err}");
        assert!(!out.exists());
    }

    #[test]
    fn merge_requires_every_input_to_exist() {
        // `open` would create a missing shard as an empty store — a typo'd
        // path must fail loudly instead of merging nothing.
        let a = shard_with("merge-missing-a", &[record(8)]);
        let ghost = temp_path("merge-missing-ghost");
        let out = temp_path("merge-missing-out");
        let err = ResultStore::merge(&campaign_over(&[8]), &out, &[&a, &ghost]).unwrap_err();
        assert!(err.to_string().contains("does not exist"), "{err}");
        assert!(!ghost.exists(), "no empty shard left behind");
        assert!(!out.exists());
        let _ = std::fs::remove_file(a);
    }

    #[test]
    fn merge_drops_stale_records_and_leaves_inputs_alone() {
        // Records whose keys left the expansion are dropped from the output
        // (like compact) but the input shards themselves are never rewritten.
        let a = shard_with("merge-stale-a", &[record(64), record(8)]);
        let before = std::fs::read(&a).unwrap();
        let out = temp_path("merge-stale-out");
        let report = ResultStore::merge(&campaign_over(&[8]), &out, &[&a]).unwrap();
        assert_eq!(report.merged, 1);
        assert_eq!(report.stale, 1);
        assert_eq!(ResultStore::open(&out).unwrap().records(), &[record(8)]);
        assert_eq!(std::fs::read(&a).unwrap(), before, "inputs are read-only");
        for p in [a, out] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn edited_records_are_rejected_by_the_key_check() {
        let path = temp_path("edited");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(record(8)).unwrap();
            store.append(record(16)).unwrap();
        }
        // Tamper with the first record's cell but keep its stored key.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"n\":8", "\"n\":12", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        assert!(ResultStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
