//! The cross-harness trace cache: a per-process in-memory map plus an
//! optional on-disk directory (`UMI_TRACE_DIR`), both keyed by a
//! content hash of the traced program.
//!
//! The native block/access stream of a workload depends only on the
//! program (which already encodes the workload scale), never on the
//! UMI configuration driving the profilers — so one trace per
//! `(workload, scale)` serves every harness. Any validation failure on
//! a disk entry (truncation, bit rot, version skew, key collision)
//! logs one line and reports a miss: callers fall back to live
//! interpretation, which re-captures and overwrites the entry.

use crate::codec::{Fnv, FNV_OFFSET};
use crate::trace::{ExecTrace, TraceError, TraceKey, FORMAT_VERSION};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use umi_ir::Program;

/// Environment variable naming the on-disk trace cache directory.
/// Unset: the cache is in-memory only (still shared across the cells
/// of one harness process).
pub const TRACE_DIR_ENV: &str = "UMI_TRACE_DIR";

/// File extension of on-disk trace entries.
pub const TRACE_EXT: &str = "umitrace";

/// Second offset basis (first 64 bits of the same prime sequence,
/// perturbed) so the two halves of a [`TraceKey`] are independent
/// hashes of the same content stream.
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

fn memory() -> &'static Mutex<HashMap<TraceKey, Arc<ExecTrace>>> {
    static MEM: OnceLock<Mutex<HashMap<TraceKey, Arc<ExecTrace>>>> = OnceLock::new();
    MEM.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The two halves of a [`TraceKey`], fed the same content through
/// [`Hasher`] so the IR's derived `Hash` impls drive it directly.
/// Integer writes absorb one word each, whatever their width.
struct KeyHasher {
    lo: Fnv,
    hi: Fnv,
}

impl KeyHasher {
    fn new() -> Self {
        let mut h = KeyHasher {
            lo: Fnv::with_basis(FNV_OFFSET),
            hi: Fnv::with_basis(FNV_OFFSET_HI),
        };
        // Format version participates in the key: a codec change makes
        // every old entry an automatic miss.
        h.write_u32(FORMAT_VERSION);
        h
    }

    fn key(&self) -> TraceKey {
        TraceKey(u128::from(self.lo.finish()) | (u128::from(self.hi.finish()) << 64))
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.lo.write(bytes);
        self.hi.write(bytes);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.lo.write_u64(v);
        self.hi.write_u64(v);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.lo.finish()
    }
}

/// Content key for a program's native execution stream: hashes the
/// program name, entry, function table, every block's code, and the
/// raw data segments (workload scale is already baked into all of
/// these), plus the trace format version. Code goes through the IR's
/// derived `Hash`, so every instruction field is covered.
pub fn program_key(program: &Program) -> TraceKey {
    let mut h = KeyHasher::new();
    program.name.hash(&mut h);
    program.entry.hash(&mut h);
    // Each table's length bounds its stream, so content cannot shift
    // from one table into the next.
    h.write_usize(program.funcs.len());
    for f in &program.funcs {
        f.id.hash(&mut h);
        f.name.hash(&mut h);
        f.entry.hash(&mut h);
    }
    h.write_usize(program.blocks.len());
    for b in &program.blocks {
        b.id.hash(&mut h);
        b.addr.hash(&mut h);
        b.insns.hash(&mut h);
        b.terminator.hash(&mut h);
    }
    h.write_usize(program.data.len());
    for seg in &program.data {
        seg.addr.hash(&mut h);
        seg.bytes.hash(&mut h);
    }
    h.key()
}

/// Content key for a raw (non-program) access stream, e.g. a synthetic
/// sink benchmark: the caller describes the generator exhaustively in
/// `context` (pattern name, reference count, batch size, ...).
pub fn context_key(context: &str) -> TraceKey {
    let mut h = KeyHasher::new();
    h.write(context.as_bytes());
    h.key()
}

/// The on-disk cache directory, if `UMI_TRACE_DIR` is set (non-empty).
pub fn trace_dir() -> Option<PathBuf> {
    match std::env::var(TRACE_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

fn entry_path(dir: &Path, key: TraceKey) -> PathBuf {
    dir.join(format!("{}.{}", key.to_hex(), TRACE_EXT))
}

/// Load and validate a trace from a directory. Missing file is `None`;
/// any other failure is the typed error.
pub fn load_from_dir(dir: &Path, key: TraceKey) -> Result<Option<ExecTrace>, TraceError> {
    let path = entry_path(dir, key);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(TraceError::Io(e.to_string())),
    };
    ExecTrace::from_bytes(&bytes, Some(key)).map(Some)
}

/// Persist a trace into a directory (atomically: temp file + rename).
pub fn store_to_dir(dir: &Path, trace: &ExecTrace) -> Result<(), TraceError> {
    std::fs::create_dir_all(dir).map_err(|e| TraceError::Io(e.to_string()))?;
    let path = entry_path(dir, trace.key());
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let io = |e: std::io::Error| TraceError::Io(e.to_string());
    std::fs::write(&tmp, trace.to_bytes()).map_err(io)?;
    std::fs::rename(&tmp, &path).map_err(io)
}

/// Look up `key`: in-memory map first, then the `UMI_TRACE_DIR` disk
/// cache. A disk entry that fails validation is reported in one line
/// on stderr and treated as a miss (the caller runs live).
pub fn fetch(key: TraceKey) -> Option<Arc<ExecTrace>> {
    if let Some(t) = memory().lock().unwrap().get(&key) {
        return Some(Arc::clone(t));
    }
    let dir = trace_dir()?;
    match load_from_dir(&dir, key) {
        Ok(Some(trace)) => {
            let arc = Arc::new(trace);
            memory().lock().unwrap().insert(key, Arc::clone(&arc));
            Some(arc)
        }
        Ok(None) => None,
        Err(err) => {
            eprintln!(
                "umi-trace: ignoring {}: {err}; falling back to live interpretation",
                entry_path(&dir, key).display()
            );
            None
        }
    }
}

/// Publish a freshly captured trace: always into the in-memory map,
/// and best-effort onto disk when `UMI_TRACE_DIR` is set.
pub fn publish(trace: ExecTrace) -> Arc<ExecTrace> {
    let arc = Arc::new(trace);
    memory().lock().unwrap().insert(arc.key(), Arc::clone(&arc));
    if let Some(dir) = trace_dir() {
        if let Err(err) = store_to_dir(&dir, &arc) {
            eprintln!(
                "umi-trace: could not persist trace to {}: {err}",
                dir.display()
            );
        }
    }
    arc
}
