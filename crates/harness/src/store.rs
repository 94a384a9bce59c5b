//! The two-tier content-addressed result store.
//!
//! Where [`crate::ArtifactStore`] memoizes program *preparation*, this
//! store memoizes the expensive half of a sweep: executed injection
//! results. Entries are keyed by [`SectionKey`] — pure content digests
//! (program, def-use slice, fault model; see `sor_ace::incremental` and
//! DESIGN.md §14) — so a key never goes stale by renaming and never
//! collides across workload parameters.
//!
//! Two tiers:
//!
//! * **Memory** — `Arc`-shared maps behind mutexes, exactly like the
//!   artifact store; all gets are served here.
//! * **Disk** — an append-only file under the store directory
//!   (`results/store/sections.bin` for the default bins), loaded once at
//!   [`ResultStore::open`] and appended on every fresh insert. Std-only,
//!   length-prefixed binary records with a magic + format-version header
//!   and a per-record FNV-1a checksum.
//!
//! ## Robustness contract
//!
//! A store must never be able to make a result *wrong*, only to make it
//! *recomputed*. Every degraded state falls back to a clean miss and
//! counts a [`warning`](ResultStore::warnings):
//!
//! * header magic or version mismatch → the whole file is ignored and
//!   rewritten fresh;
//! * a truncated or checksum-corrupt record → the file is truncated back
//!   to its last intact prefix (re-inserts heal the lost tail);
//! * a record that parses but disagrees with the caller's freshly built
//!   plan (the digest-collision guard) → dropped and recomputed;
//! * any I/O error → the store silently degrades to memory-only.
//!
//! ## Concurrency
//!
//! One `ResultStore` is safe to share across threads: gets read the
//! memory tier (read-your-writes — a section another thread just `put`
//! is immediately visible), and the disk tier is a single append lock
//! around one persistently held file handle, so frames from racing
//! writers never interleave. The on-disk file still assumes a single
//! *process* per store directory; concurrent readers of the file are
//! safe because records are validated independently.

use sor_ace::{ClassOutcome, SectionKey, SectionOutcomes};
use sor_ir::{ContentHash, Fnv1a, ProtectionRole};
use sor_sim::FaultSpec;
use sor_stats::OutcomeCounts;
use sor_triage::{SiteStats, VulnerabilityProfile};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bump whenever the record layout below changes incompatibly; stores
/// written under any other version are discarded wholesale (a warning,
/// then clean recompute). Version 2: the fault-model subsystem revised
/// the section-key config digest (`CERT_SEMANTICS_VERSION` 2 now feeds
/// the per-model digest), so version-1 records can never match a fresh
/// key and are dead weight — discarding the file up front keeps the
/// stale entries from accumulating silently.
pub const STORE_FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"SORSTORE";
const HEADER_LEN: u64 = 12;
const KIND_CERT: u8 = 1;
const KIND_TRIAGE: u8 = 2;
/// Backstop against absurd length prefixes from corrupt frames.
const MAX_PAYLOAD: u32 = 1 << 28;

/// Derives the [`SectionKey`] of one stored triage section: the program
/// digest, a digest of the section's bounds and exact fault list, and the
/// shared fault-model digest. Exact for the same reason certification
/// keys are (each sampled fault's outcome is a pure function of
/// `(program, fault)`); the fault list stands in for the def-use slice
/// because sampled sections re-execute listed faults rather than class
/// representatives derived from a trace.
pub fn triage_section_key(
    program: ContentHash,
    start: u64,
    end: u64,
    faults: &[FaultSpec],
) -> SectionKey {
    let mut h = Fnv1a::new();
    h.u64(start);
    h.u64(end);
    h.usize(faults.len());
    for f in faults {
        h.u64(f.at_instr);
        h.bytes(&[f.reg, f.bit]);
    }
    SectionKey {
        program,
        slice: ContentHash(h.finish64()),
        config: sor_ace::fault_config_digest(),
    }
}

/// The disk tier: the store file's path plus a persistently held append
/// handle. Holding the handle for the store's lifetime (rather than
/// re-opening per append) makes the surrounding mutex the *single*
/// append lock — racing in-process writers serialize through it and
/// frames never interleave.
struct DiskTier {
    path: PathBuf,
    file: std::fs::File,
}

impl DiskTier {
    fn attach(path: &Path) -> std::io::Result<DiskTier> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(DiskTier {
            path: path.to_path_buf(),
            file,
        })
    }
}

/// The two-tier persistent result store shared by certify, triage, the
/// figure bins and `sor-server`. See the module docs for the format, the
/// robustness contract and the concurrency contract.
pub struct ResultStore {
    cert: Mutex<HashMap<SectionKey, Arc<SectionOutcomes>>>,
    triage: Mutex<HashMap<SectionKey, Arc<VulnerabilityProfile>>>,
    /// Disk tier; `None` = memory-only (either by construction or after
    /// an unrecoverable I/O error).
    file: Mutex<Option<DiskTier>>,
    hits: AtomicU64,
    misses: AtomicU64,
    warnings: AtomicU64,
}

impl Default for ResultStore {
    fn default() -> Self {
        ResultStore::in_memory()
    }
}

impl ResultStore {
    /// A memory-only store: full incremental reuse within one process,
    /// nothing persisted (the `--no-store` path).
    pub fn in_memory() -> Self {
        ResultStore {
            cert: Mutex::new(HashMap::new()),
            triage: Mutex::new(HashMap::new()),
            file: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            warnings: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) the persistent store under `dir`,
    /// loading every intact record into the memory tier. Never fails:
    /// unreadable headers, corrupt tails and I/O errors all degrade per
    /// the module-level robustness contract.
    pub fn open(dir: impl AsRef<Path>) -> Self {
        let store = ResultStore::in_memory();
        let path = dir.as_ref().join("sections.bin");
        if std::fs::create_dir_all(dir.as_ref()).is_err() {
            store.warn();
            return store;
        }
        match std::fs::read(&path) {
            Ok(bytes) => store.load(&path, &bytes),
            // A fresh store directory: write the header now so later
            // appends land in a well-formed file.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                match write_header(&path).and_then(|()| DiskTier::attach(&path)) {
                    Ok(tier) => *store.file.lock().unwrap() = Some(tier),
                    Err(_) => store.warn(),
                }
            }
            Err(_) => store.warn(),
        }
        store
    }

    /// Parses a store file image, populating the memory tier and healing
    /// the file in place when its tail is damaged.
    fn load(&self, path: &Path, bytes: &[u8]) {
        if bytes.len() < HEADER_LEN as usize
            || &bytes[..8] != MAGIC
            || bytes[8..12] != STORE_FORMAT_VERSION.to_le_bytes()
        {
            // Foreign or stale-format file: discard wholesale.
            self.warn();
            if let Ok(tier) = write_header(path).and_then(|()| DiskTier::attach(path)) {
                *self.file.lock().unwrap() = Some(tier);
            }
            return;
        }
        let mut off = HEADER_LEN as usize;
        let mut good = off;
        loop {
            match read_record(&bytes[off..]) {
                Ok(Some((consumed, entry))) => {
                    match entry {
                        Entry::Cert(key, v) => {
                            self.cert.lock().unwrap().insert(key, Arc::new(v));
                        }
                        Entry::Triage(key, v) => {
                            self.triage.lock().unwrap().insert(key, Arc::new(v));
                        }
                    }
                    off += consumed;
                    good = off;
                }
                Ok(None) => break, // clean end of file
                Err(()) => {
                    // Truncated or corrupt record: heal by cutting the
                    // file back to its last intact prefix and stop.
                    self.warn();
                    let f = std::fs::OpenOptions::new().write(true).open(path);
                    if f.and_then(|f| f.set_len(good as u64)).is_err() {
                        self.warn();
                    }
                    break;
                }
            }
        }
        // Attach the append handle only after any healing truncation, so
        // appends land at the intact prefix's end.
        match DiskTier::attach(path) {
            Ok(tier) => *self.file.lock().unwrap() = Some(tier),
            Err(_) => self.warn(),
        }
    }

    /// Looks up a certified section, `validate` guarding against digest
    /// collisions and plan drift: a cached entry that fails validation is
    /// dropped, counted as a warning, and reported as a miss (forcing
    /// recompute) — never served.
    pub fn get_cert(
        &self,
        key: &SectionKey,
        validate: impl FnOnce(&SectionOutcomes) -> bool,
    ) -> Option<Arc<SectionOutcomes>> {
        let found = self.cert.lock().unwrap().get(key).cloned();
        self.resolve(found, key, validate, &self.cert)
    }

    /// Looks up a triage section profile; same contract as
    /// [`get_cert`](Self::get_cert).
    pub fn get_triage(
        &self,
        key: &SectionKey,
        validate: impl FnOnce(&VulnerabilityProfile) -> bool,
    ) -> Option<Arc<VulnerabilityProfile>> {
        let found = self.triage.lock().unwrap().get(key).cloned();
        self.resolve(found, key, validate, &self.triage)
    }

    fn resolve<T>(
        &self,
        found: Option<Arc<T>>,
        key: &SectionKey,
        validate: impl FnOnce(&T) -> bool,
        map: &Mutex<HashMap<SectionKey, Arc<T>>>,
    ) -> Option<Arc<T>> {
        match found {
            Some(v) if validate(&v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Some(_) => {
                self.warn();
                self.misses.fetch_add(1, Ordering::Relaxed);
                map.lock().unwrap().remove(key);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly executed certified section and appends it to the
    /// disk tier. Re-inserting an already-cached key is a no-op (results
    /// are deterministic per key, so the stored value is already right).
    pub fn put_cert(&self, key: SectionKey, value: SectionOutcomes) -> Arc<SectionOutcomes> {
        let value = Arc::new(value);
        let fresh = self
            .cert
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&value))
            .is_none();
        if fresh {
            self.append(|| encode_cert(&key, &value));
        }
        value
    }

    /// Inserts a freshly executed triage section profile; same contract
    /// as [`put_cert`](Self::put_cert).
    pub fn put_triage(
        &self,
        key: SectionKey,
        value: VulnerabilityProfile,
    ) -> Arc<VulnerabilityProfile> {
        let value = Arc::new(value);
        let fresh = self
            .triage
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&value))
            .is_none();
        if fresh {
            self.append(|| encode_triage(&key, &value));
        }
        value
    }

    /// Appends one framed record through the held handle. The tier lock
    /// is held for the whole write, so concurrent in-process `put`s
    /// serialize and the file only ever contains whole frames (short of
    /// an external crash mid-write, which `load` heals).
    /// A memory-only store never encodes the record.
    fn append(&self, payload: impl FnOnce() -> Vec<u8>) {
        let mut guard = self.file.lock().unwrap();
        let Some(tier) = guard.as_mut() else { return };
        let payload = payload();
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if tier.file.write_all(&frame).is_err() {
            // A failed append may have left a partial frame; drop the
            // tier (memory-only from here) rather than risk appending
            // after a torn record.
            *guard = None;
            self.warn();
        }
    }

    /// Flushes the disk tier to the OS. Appends already go straight to
    /// the file; this exists so a graceful shutdown has an explicit
    /// barrier before the process exits.
    pub fn flush(&self) {
        if let Some(tier) = self.file.lock().unwrap().as_mut() {
            if tier.file.flush().is_err() {
                self.warn();
            }
        }
    }

    fn warn(&self) {
        self.warnings.fetch_add(1, Ordering::Relaxed);
    }

    /// Section lookups served from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Section lookups that had to recompute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Degraded-state events survived (corrupt records, version
    /// mismatches, I/O errors, validation rejections).
    pub fn warnings(&self) -> u64 {
        self.warnings.load(Ordering::Relaxed)
    }

    /// Entries held in the memory tier (certified + triage sections).
    pub fn len(&self) -> usize {
        self.cert.lock().unwrap().len() + self.triage.lock().unwrap().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The disk tier's file path, when persistence is active.
    pub fn path(&self) -> Option<PathBuf> {
        self.file.lock().unwrap().as_ref().map(|t| t.path.clone())
    }

    /// The one-line `hits=… misses=… warnings=…` summary the bins print.
    pub fn summary(&self) -> String {
        format!(
            "hits={} misses={} warnings={}",
            self.hits(),
            self.misses(),
            self.warnings()
        )
    }
}

fn write_header(path: &Path) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    std::fs::write(path, header)
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(payload);
    h.finish64()
}

enum Entry {
    Cert(SectionKey, SectionOutcomes),
    Triage(SectionKey, VulnerabilityProfile),
}

/// Reads one framed record from `bytes`. `Ok(None)` = clean end,
/// `Err(())` = truncated or corrupt (caller truncates the file here).
fn read_record(bytes: &[u8]) -> Result<Option<(usize, Entry)>, ()> {
    if bytes.is_empty() {
        return Ok(None);
    }
    if bytes.len() < 12 {
        return Err(());
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(());
    }
    let sum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let end = 12usize.checked_add(len as usize).ok_or(())?;
    let payload = bytes.get(12..end).ok_or(())?;
    if checksum(payload) != sum {
        return Err(());
    }
    let entry = decode_payload(payload).ok_or(())?;
    Ok(Some((end, entry)))
}

fn decode_payload(payload: &[u8]) -> Option<Entry> {
    let mut r = Reader(payload);
    let kind = r.u8()?;
    let key = SectionKey {
        program: ContentHash(r.u64()?),
        slice: ContentHash(r.u64()?),
        config: ContentHash(r.u64()?),
    };
    let entry = match kind {
        KIND_CERT => {
            let n = r.u32()? as usize;
            let mut classes = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                classes.push(ClassOutcome {
                    reg: r.u8()?,
                    rep: r.u64()?,
                    counts: r.counts()?,
                });
            }
            Entry::Cert(key, SectionOutcomes { classes })
        }
        KIND_TRIAGE => {
            let nsites = r.u32()? as usize;
            let mut sites = Vec::with_capacity(nsites.min(1 << 20));
            for _ in 0..nsites {
                let pc = r.u64()? as usize;
                let role = r.role()?;
                let counts = r.counts()?;
                sites.push((pc, SiteStats { role, counts }));
            }
            let nroles = r.u32()? as usize;
            let mut roles = Vec::with_capacity(nroles.min(1 << 10));
            for _ in 0..nroles {
                roles.push((r.role()?, r.counts()?));
            }
            let nregs = r.u32()? as usize;
            let mut regs = Vec::with_capacity(nregs.min(1 << 10));
            for _ in 0..nregs {
                regs.push((r.u8()?, r.counts()?));
            }
            let unfired = r.counts()?;
            Entry::Triage(
                key,
                VulnerabilityProfile::from_parts(sites, roles, regs, unfired),
            )
        }
        _ => return None,
    };
    // Trailing garbage inside a checksummed frame means the writer and
    // reader disagree about the layout: reject.
    if !r.0.is_empty() {
        return None;
    }
    Some(entry)
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let (head, tail) = (self.0.get(..n)?, self.0.get(n..)?);
        self.0 = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn counts(&mut self) -> Option<OutcomeCounts> {
        Some(OutcomeCounts {
            unace: self.u64()?,
            sdc: self.u64()?,
            segv: self.u64()?,
            detected: self.u64()?,
            hang: self.u64()?,
            recoveries: self.u64()?,
        })
    }

    fn role(&mut self) -> Option<ProtectionRole> {
        ProtectionRole::ALL.get(self.u8()? as usize).copied()
    }
}

fn put_counts(buf: &mut Vec<u8>, c: &OutcomeCounts) {
    // Destructured so a field added to OutcomeCounts fails to compile
    // here instead of silently vanishing from the store.
    let OutcomeCounts {
        unace,
        sdc,
        segv,
        detected,
        hang,
        recoveries,
    } = *c;
    for v in [unace, sdc, segv, detected, hang, recoveries] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn role_code(role: ProtectionRole) -> u8 {
    ProtectionRole::ALL
        .iter()
        .position(|&r| r == role)
        .expect("ALL enumerates every role") as u8
}

fn put_key(buf: &mut Vec<u8>, kind: u8, key: &SectionKey) {
    buf.push(kind);
    buf.extend_from_slice(&key.program.0.to_le_bytes());
    buf.extend_from_slice(&key.slice.0.to_le_bytes());
    buf.extend_from_slice(&key.config.0.to_le_bytes());
}

fn encode_cert(key: &SectionKey, value: &SectionOutcomes) -> Vec<u8> {
    let mut buf = Vec::new();
    put_key(&mut buf, KIND_CERT, key);
    buf.extend_from_slice(&(value.classes.len() as u32).to_le_bytes());
    for c in &value.classes {
        buf.push(c.reg);
        buf.extend_from_slice(&c.rep.to_le_bytes());
        put_counts(&mut buf, &c.counts);
    }
    buf
}

fn encode_triage(key: &SectionKey, value: &VulnerabilityProfile) -> Vec<u8> {
    let mut buf = Vec::new();
    put_key(&mut buf, KIND_TRIAGE, key);
    let sites: Vec<_> = value.sites().collect();
    buf.extend_from_slice(&(sites.len() as u32).to_le_bytes());
    for (pc, s) in sites {
        buf.extend_from_slice(&(pc as u64).to_le_bytes());
        buf.push(role_code(s.role));
        put_counts(&mut buf, &s.counts);
    }
    let roles: Vec<_> = value.roles().collect();
    buf.extend_from_slice(&(roles.len() as u32).to_le_bytes());
    for (role, c) in roles {
        buf.push(role_code(role));
        put_counts(&mut buf, &c);
    }
    let regs: Vec<_> = value.regs().collect();
    buf.extend_from_slice(&(regs.len() as u32).to_le_bytes());
    for (reg, c) in regs {
        buf.push(reg);
        put_counts(&mut buf, &c);
    }
    put_counts(&mut buf, &value.unfired());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> SectionKey {
        SectionKey {
            program: ContentHash(n),
            slice: ContentHash(n ^ 0xABCD),
            config: sor_ace::fault_config_digest(),
        }
    }

    fn outcomes(n: u64) -> SectionOutcomes {
        SectionOutcomes {
            classes: (0..3)
                .map(|i| ClassOutcome {
                    reg: 2 + i as u8,
                    rep: n + i,
                    counts: OutcomeCounts {
                        unace: 60,
                        sdc: 4,
                        recoveries: n,
                        ..OutcomeCounts::default()
                    },
                })
                .collect(),
        }
    }

    fn profile() -> VulnerabilityProfile {
        use sor_sim::{GenFaultRecord, Outcome};
        let mut p = VulnerabilityProfile::new();
        p.record(
            &GenFaultRecord {
                fault: FaultSpec::new(3, 2, 5).into(),
                outcome: Outcome::Sdc,
                static_inst: Some(17),
                role: ProtectionRole::Voter,
            },
            2,
        );
        p.record(
            &GenFaultRecord {
                fault: FaultSpec::new(9, 4, 1).into(),
                outcome: Outcome::UnAce,
                static_inst: None,
                role: ProtectionRole::Original,
            },
            0,
        );
        p
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sor-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let s = ResultStore::in_memory();
        assert!(s.get_cert(&key(1), |_| true).is_none());
        s.put_cert(key(1), outcomes(7));
        let v = s.get_cert(&key(1), |_| true).expect("hit");
        assert_eq!(*v, outcomes(7));
        assert_eq!((s.hits(), s.misses(), s.warnings()), (1, 1, 0));
        assert!(s.path().is_none());
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let s = ResultStore::open(&dir);
            s.put_cert(key(1), outcomes(7));
            s.put_triage(key(2), profile());
            assert_eq!(s.warnings(), 0);
        }
        let s = ResultStore::open(&dir);
        assert_eq!(s.len(), 2);
        assert_eq!(*s.get_cert(&key(1), |_| true).unwrap(), outcomes(7));
        assert_eq!(*s.get_triage(&key(2), |_| true).unwrap(), profile());
        assert_eq!(s.warnings(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_heals_to_the_intact_prefix() {
        let dir = temp_dir("trunc");
        {
            let s = ResultStore::open(&dir);
            s.put_cert(key(1), outcomes(7));
            s.put_cert(key(2), outcomes(9));
        }
        let path = dir.join("sections.bin");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let s = ResultStore::open(&dir);
        assert_eq!(s.warnings(), 1, "truncation surfaces as one warning");
        assert!(s.get_cert(&key(1), |_| true).is_some(), "prefix intact");
        assert!(s.get_cert(&key(2), |_| true).is_none(), "tail dropped");
        // The file was healed: reopening is warning-free and re-inserting
        // the lost entry persists it again.
        s.put_cert(key(2), outcomes(9));
        let s2 = ResultStore::open(&dir);
        assert_eq!(s2.warnings(), 0);
        assert_eq!(s2.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_record_byte_drops_only_that_record() {
        let dir = temp_dir("fliprec");
        {
            let s = ResultStore::open(&dir);
            s.put_cert(key(1), outcomes(7));
        }
        let path = dir.join("sections.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN as usize + 20; // inside the first payload
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let s = ResultStore::open(&dir);
        assert_eq!(s.warnings(), 1);
        assert!(s.get_cert(&key(1), |_| true).is_none());
        assert!(s.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_format_version_discards_the_file() {
        let dir = temp_dir("version");
        {
            let s = ResultStore::open(&dir);
            s.put_cert(key(1), outcomes(7));
        }
        let path = dir.join("sections.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0xFF; // version field
        std::fs::write(&path, &bytes).unwrap();
        let s = ResultStore::open(&dir);
        assert_eq!(s.warnings(), 1);
        assert!(s.is_empty());
        // The file was rewritten with a clean current-version header.
        s.put_cert(key(1), outcomes(7));
        let s2 = ResultStore::open(&dir);
        assert_eq!((s2.warnings(), s2.len()), (0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validation_rejection_is_a_warned_miss_that_evicts() {
        let s = ResultStore::in_memory();
        s.put_cert(key(1), outcomes(7));
        assert!(s.get_cert(&key(1), |_| false).is_none());
        assert_eq!((s.hits(), s.misses(), s.warnings()), (0, 1, 1));
        // The poisoned entry is gone, so a re-put re-primes the store.
        s.put_cert(key(1), outcomes(8));
        assert_eq!(*s.get_cert(&key(1), |_| true).unwrap(), outcomes(8));
    }

    #[test]
    fn triage_keys_separate_from_cert_keys() {
        let s = ResultStore::in_memory();
        s.put_cert(key(1), outcomes(7));
        assert!(s.get_triage(&key(1), |_| true).is_none());
        assert_eq!(s.len(), 1);
    }

    /// Two threads hammering disjoint keys through one disk-backed store
    /// serialize through the append lock: every record survives a
    /// reopen intact (no interleaved frames) and nothing warns.
    #[test]
    fn concurrent_writers_never_tear_the_disk_tier() {
        let dir = temp_dir("race");
        let n = 40u64;
        {
            let s = Arc::new(ResultStore::open(&dir));
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || {
                        for i in 0..n {
                            s.put_cert(key(1000 * (t + 1) + i), outcomes(i));
                            s.put_triage(key(5000 * (t + 1) + i), profile());
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(s.warnings(), 0);
            // Read-your-writes: everything is visible in the memory tier.
            assert_eq!(s.len() as u64, 4 * n);
            s.flush();
        }
        let reopened = ResultStore::open(&dir);
        assert_eq!(reopened.warnings(), 0, "a torn frame would warn here");
        assert_eq!(reopened.len() as u64, 4 * n);
        for t in 0..2u64 {
            for i in 0..n {
                let v = reopened
                    .get_cert(&key(1000 * (t + 1) + i), |_| true)
                    .expect("record survived");
                assert_eq!(*v, outcomes(i));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn triage_section_key_tracks_fault_list_content() {
        let p = ContentHash(42);
        let faults = [FaultSpec::new(1, 2, 3), FaultSpec::new(4, 5, 6)];
        let a = triage_section_key(p, 0, 10, &faults);
        assert_eq!(a, triage_section_key(p, 0, 10, &faults));
        let mut other = faults;
        other[1] = FaultSpec::new(4, 5, 7);
        assert_ne!(a, triage_section_key(p, 0, 10, &other));
        assert_ne!(a, triage_section_key(p, 0, 11, &faults));
        assert_ne!(a, triage_section_key(ContentHash(43), 0, 10, &faults));
    }
    /// A store written by an older build keeps hitting only while section
    /// keys stay put: pin the literal triage and certification keys of a
    /// fixed tiny program.
    #[test]
    fn section_key_digests_are_pinned() {
        use sor_ir::{Digest, ModuleBuilder, Operand, Width};
        let mut mb = ModuleBuilder::new("pin");
        let mut f = mb.function("main");
        let a = f.movi(11);
        let b = f.mul(Width::W64, a, 3i64);
        let c = f.add(Width::W64, b, a);
        f.emit(Operand::reg(c));
        f.ret(&[]);
        let id = f.finish();
        let program = sor_regalloc::lower(&mb.finish(id), &Default::default()).unwrap();
        let digest = program.content_digest();
        let key = |slice| SectionKey {
            program: ContentHash(0x8417_ab39_6990_1b12),
            slice: ContentHash(slice),
            config: ContentHash(0xbf14_a7b6_1ebc_731a),
        };
        assert_eq!(digest, key(0).program);
        let faults = [FaultSpec::new(0, 2, 3), FaultSpec::new(1, 5, 63)];
        assert_eq!(
            triage_section_key(digest, 0, 2, &faults),
            key(0xa002_4e65_5a6d_f607)
        );
        let runner = sor_sim::Runner::new(&program, &sor_sim::MachineConfig::default());
        let trace = sor_ace::DefUseTrace::record(&runner);
        let plan = sor_ace::CertPlan::build(&trace);
        let sections = sor_ace::CertSections::partition(&program, &trace, &plan, 2);
        let cert: Vec<SectionKey> = sections.sections.iter().map(|s| s.key).collect();
        assert_eq!(
            cert,
            [key(0x3d8c_a148_f492_dcf3), key(0x7e48_e66f_c90f_ada8)]
        );
    }
}
