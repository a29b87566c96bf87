//! The trace container: an executed block/access stream in its compact
//! in-memory form, plus the checksummed on-disk serialization.
//!
//! ## Format (version 3)
//!
//! A trace file is a 48-byte header followed by a varint payload:
//!
//! ```text
//! header   := magic "UMITRACE" (8B) | version u32 LE | reserved u32 (0)
//!           | key_lo u64 LE | key_hi u64 LE
//!           | payload_len u64 LE | checksum u64 LE   (codec::fnv64 of payload)
//! payload  := summary dict events
//! summary  := insns loads stores blocks heap_allocated accesses records   (varints)
//! dict     := count { block_id slot_count { pc_delta kind width }* }*
//! events   := { op }*  where op 0      = cycle run: varint period p, varint
//!                                       count c — the last p encoded
//!                                       records repeat c full times
//!                      op 1+2d (full)  = record for dict entry d, one
//!                                       zigzag address delta per slot
//!                      op 2+2d (sparse)= record for dict entry d: varint
//!                                       changed-slot count n, then n ×
//!                                       (varint slot index, zigzag delta);
//!                                       unlisted slots reuse the entry's
//!                                       previous delta
//! ```
//!
//! Per-block access *templates* — the `(pc, width, kind)` of every slot —
//! are static, so they live once in the dictionary; each dynamic record
//! stores only zigzag+varint address deltas against that dictionary
//! entry's previous execution, and only for the slots whose delta
//! *changed* (real blocks mix strided or stack slots, whose deltas are
//! constant for the whole loop, with data-dependent slots that jitter —
//! a sparse record pays only for the jitter). A record with no changed
//! slots carries no information beyond its entry id — and a
//! steady-state loop iteration is a *periodic sequence* of such records
//! (head, body, latch, ...). Both sides keep a window of the last
//! [`MAX_PERIOD`] encoded records; a periodic repeat stream collapses
//! into one `op 0` event per loop, costing a few bytes for millions of
//! iterations regardless of how many blocks the loop body spans.

use crate::codec;
use std::collections::VecDeque;
use std::fmt;
use umi_ir::{AccessKind, BlockId, MemAccess, Pc};
use umi_vm::{AccessSink, VmStats};

/// Trace format version; bumped on any wire-format change so stale
/// on-disk entries are rejected (and re-captured) rather than misread.
/// Version 3 moved the payload checksum to the word-at-a-time
/// [`codec::fnv64`].
pub const FORMAT_VERSION: u32 = 3;

/// Magic bytes opening every trace file.
pub const MAGIC: [u8; 8] = *b"UMITRACE";

/// Longest cycle (in records) the run encoder will match. Loop bodies
/// spanning more blocks than this still compress — every record whose
/// deltas repeat costs its explicit bytes, which are small — they just
/// don't collapse into `op 0` runs.
pub const MAX_PERIOD: usize = 16;

const HEADER_LEN: usize = 48;

/// Content key identifying what a trace is a trace *of* (see
/// [`crate::store::program_key`]). Two independent word-at-a-time FNV
/// hashes of the program content; collisions are vanishingly unlikely
/// at our scale (tens of workloads).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceKey(pub u128);

impl TraceKey {
    /// Filesystem-friendly rendering (32 hex digits).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Why a trace file was rejected. Every variant is survivable: callers
/// fall back to live interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Fewer bytes than the structure demands.
    Truncated {
        /// Bytes needed to make progress.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The file does not open with [`MAGIC`].
    BadMagic,
    /// Written by a different format version.
    VersionSkew {
        /// Version stamped in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The header's content key is not the one the caller asked for.
    KeyMismatch,
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// Structurally invalid payload (bad varint, impossible dictionary
    /// reference, event stream disagreeing with the summary, ...).
    Malformed(&'static str),
    /// The file could not be read at all.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated { expected, got } => {
                write!(f, "truncated trace: need {expected} bytes, have {got}")
            }
            TraceError::BadMagic => write!(f, "not a UMI trace (bad magic)"),
            TraceError::VersionSkew { found, expected } => {
                write!(f, "trace format version {found}, expected {expected}")
            }
            TraceError::KeyMismatch => write!(f, "trace content key mismatch"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: header {stored:#018x}, payload {computed:#018x}"
            ),
            TraceError::Malformed(what) => write!(f, "malformed trace payload: {what}"),
            TraceError::Io(err) => write!(f, "trace io error: {err}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One static access slot of a block: everything about the access
/// except its address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotTemplate {
    /// Issuing instruction.
    pub pc: Pc,
    /// Access width in bytes.
    pub width: u8,
    /// Load / store / prefetch.
    pub kind: AccessKind,
}

/// A dictionary entry: one block's access template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictEntry {
    /// The block this template belongs to (synthetic in raw streams).
    pub block: BlockId,
    /// Static access slots, in issue order.
    pub slots: Vec<SlotTemplate>,
}

impl DictEntry {
    /// Demand loads per execution of this template.
    pub fn n_loads(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| s.kind == AccessKind::Load)
            .count() as u32
    }

    /// Stores per execution of this template.
    pub fn n_stores(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| s.kind == AccessKind::Store)
            .count() as u32
    }
}

/// Totals recorded at capture time; replay asserts against them and
/// sources the dynamic-only `heap_allocated` from here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Final VM statistics of the captured run.
    pub stats: VmStats,
    /// Total dynamic accesses (including prefetches).
    pub accesses: u64,
    /// Dynamic block records (= executed blocks for program traces).
    pub records: u64,
}

/// A captured execution stream: block dictionary plus the encoded
/// event bytes. Immutable once built; shared across consumers via
/// `Arc` and replayed any number of times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecTrace {
    pub(crate) key: TraceKey,
    pub(crate) dict: Vec<DictEntry>,
    pub(crate) events: Vec<u8>,
    pub(crate) summary: TraceSummary,
}

/// The issue names this role explicitly: the decoded trace doubles as
/// its own reader.
pub type TraceReader = ExecTrace;

impl ExecTrace {
    pub(crate) fn new(
        key: TraceKey,
        dict: Vec<DictEntry>,
        events: Vec<u8>,
        summary: TraceSummary,
    ) -> Self {
        ExecTrace {
            key,
            dict,
            events,
            summary,
        }
    }

    /// The content key this trace was captured under.
    pub fn key(&self) -> TraceKey {
        self.key
    }

    /// Capture-time totals.
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// The block-template dictionary.
    pub fn dict(&self) -> &[DictEntry] {
        &self.dict
    }

    /// Encoded event bytes (diagnostics: compression accounting).
    pub fn event_bytes(&self) -> usize {
        self.events.len()
    }

    /// Drive `sink` with the recorded access stream, one `access_batch`
    /// per block record — exactly the chunking a live `Vm` run delivers.
    /// Returns the capture-time summary.
    pub fn replay_into<S: AccessSink>(&self, sink: &mut S) -> TraceSummary {
        let mut st = EventState::new(&self.dict);
        // One prebuilt template buffer per dictionary entry: the
        // (pc, width, kind) fields never change between records of the
        // same entry, so each record only patches addresses.
        let mut bufs: Vec<Vec<MemAccess>> = self
            .dict
            .iter()
            .map(|entry| {
                entry
                    .slots
                    .iter()
                    .map(|slot| MemAccess {
                        pc: slot.pc,
                        addr: 0,
                        width: slot.width,
                        kind: slot.kind,
                    })
                    .collect()
            })
            .collect();
        while let Some(d) = st
            .next_record(&self.events)
            .expect("trace payload corrupt despite checksum")
        {
            let buf = &mut bufs[d];
            for (a, &addr) in buf.iter_mut().zip(st.addrs(d)) {
                a.addr = addr;
            }
            if !buf.is_empty() {
                sink.access_batch(buf);
            }
        }
        self.summary
    }

    /// Serialize to the checksummed on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + self.events.len());
        let s = &self.summary;
        codec::write_varint(&mut payload, s.stats.insns);
        codec::write_varint(&mut payload, s.stats.loads);
        codec::write_varint(&mut payload, s.stats.stores);
        codec::write_varint(&mut payload, s.stats.blocks);
        codec::write_varint(&mut payload, s.stats.heap_allocated);
        codec::write_varint(&mut payload, s.accesses);
        codec::write_varint(&mut payload, s.records);
        codec::write_varint(&mut payload, self.dict.len() as u64);
        for entry in &self.dict {
            codec::write_varint(&mut payload, u64::from(entry.block.0));
            codec::write_varint(&mut payload, entry.slots.len() as u64);
            let mut prev_pc = 0u64;
            for slot in &entry.slots {
                codec::write_signed(&mut payload, slot.pc.0.wrapping_sub(prev_pc) as i64);
                prev_pc = slot.pc.0;
                payload.push(match slot.kind {
                    AccessKind::Load => 0,
                    AccessKind::Store => 1,
                    AccessKind::Prefetch => 2,
                });
                payload.push(slot.width);
            }
        }
        payload.extend_from_slice(&self.events);

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(self.key.0 as u64).to_le_bytes());
        out.extend_from_slice(&((self.key.0 >> 64) as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&codec::fnv64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse and fully validate a serialized trace. `expected_key`
    /// (when given) must match the header key. The entire event stream
    /// is walked once here so that replay can never fault on bytes a
    /// (correct) checksum let through.
    pub fn from_bytes(bytes: &[u8], expected_key: Option<TraceKey>) -> Result<Self, TraceError> {
        if bytes.len() < HEADER_LEN {
            return Err(TraceError::Truncated {
                expected: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let word32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let word64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = word32(8);
        if version != FORMAT_VERSION {
            return Err(TraceError::VersionSkew {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let key = TraceKey(u128::from(word64(16)) | (u128::from(word64(24)) << 64));
        if let Some(want) = expected_key {
            if key != want {
                return Err(TraceError::KeyMismatch);
            }
        }
        let payload_len = word64(32) as usize;
        if bytes.len() < HEADER_LEN + payload_len {
            return Err(TraceError::Truncated {
                expected: HEADER_LEN + payload_len,
                got: bytes.len(),
            });
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        let stored = word64(40);
        let computed = codec::fnv64(payload);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }

        let mut pos = 0usize;
        let mut next = || codec::read_varint(payload, &mut pos);
        let summary = TraceSummary {
            stats: VmStats {
                insns: next()?,
                loads: next()?,
                stores: next()?,
                blocks: next()?,
                heap_allocated: next()?,
            },
            accesses: next()?,
            records: next()?,
        };
        let dict_len = codec::read_varint(payload, &mut pos)?;
        if dict_len > u64::from(u32::MAX) {
            return Err(TraceError::Malformed("dictionary too large"));
        }
        let mut dict = Vec::with_capacity(dict_len as usize);
        for _ in 0..dict_len {
            let block = codec::read_varint(payload, &mut pos)?;
            if block > u64::from(u32::MAX) {
                return Err(TraceError::Malformed("block id overflows u32"));
            }
            let slot_count = codec::read_varint(payload, &mut pos)?;
            if slot_count > 1 << 20 {
                return Err(TraceError::Malformed("implausible slot count"));
            }
            let mut slots = Vec::with_capacity(slot_count as usize);
            let mut prev_pc = 0u64;
            for _ in 0..slot_count {
                let delta = codec::read_signed(payload, &mut pos)?;
                let pc = prev_pc.wrapping_add(delta as u64);
                prev_pc = pc;
                let kind_byte = *payload.get(pos).ok_or(TraceError::Truncated {
                    expected: pos + 2,
                    got: payload.len(),
                })?;
                let width = *payload.get(pos + 1).ok_or(TraceError::Truncated {
                    expected: pos + 2,
                    got: payload.len(),
                })?;
                pos += 2;
                let kind = match kind_byte {
                    0 => AccessKind::Load,
                    1 => AccessKind::Store,
                    2 => AccessKind::Prefetch,
                    _ => return Err(TraceError::Malformed("unknown access kind")),
                };
                slots.push(SlotTemplate {
                    pc: Pc(pc),
                    width,
                    kind,
                });
            }
            dict.push(DictEntry {
                block: BlockId(block as u32),
                slots,
            });
        }
        let events = payload[pos..].to_vec();

        // Walk the event *ops* once — O(explicit records + runs), not
        // O(dynamic records) — validating structure and totals. After
        // this, every decode during replay is infallible.
        let mut tail: VecDeque<usize> = VecDeque::with_capacity(MAX_PERIOD);
        let (mut records, mut accesses) = (0u64, 0u64);
        let mut epos = 0usize;
        while epos < events.len() {
            let op = codec::read_varint(&events, &mut epos)?;
            if op >= 1 {
                let d = ((op - 1) >> 1) as usize;
                if d >= dict.len() {
                    return Err(TraceError::Malformed(
                        "record references unknown dict entry",
                    ));
                }
                let slots = dict[d].slots.len() as u64;
                if op & 1 == 1 {
                    for _ in 0..slots {
                        codec::skip_varint(&events, &mut epos)?;
                    }
                } else {
                    let n = codec::read_varint(&events, &mut epos)?;
                    for _ in 0..n {
                        let i = codec::read_varint(&events, &mut epos)?;
                        if i >= slots {
                            return Err(TraceError::Malformed("sparse slot out of range"));
                        }
                        codec::skip_varint(&events, &mut epos)?;
                    }
                }
                records += 1;
                accesses = accesses
                    .checked_add(slots)
                    .ok_or(TraceError::Malformed("access count overflows u64"))?;
                if tail.len() == MAX_PERIOD {
                    tail.pop_front();
                }
                tail.push_back(d);
            } else {
                let p = codec::read_varint(&events, &mut epos)?;
                let c = codec::read_varint(&events, &mut epos)?;
                if p == 0 || p > tail.len().min(MAX_PERIOD) as u64 {
                    return Err(TraceError::Malformed("run period exceeds record window"));
                }
                if c == 0 {
                    return Err(TraceError::Malformed("empty run"));
                }
                let p = p as usize;
                let cycle_accesses: u64 = tail
                    .iter()
                    .skip(tail.len() - p)
                    .map(|&d| dict[d].slots.len() as u64)
                    .sum();
                records = (p as u64)
                    .checked_mul(c)
                    .and_then(|n| records.checked_add(n))
                    .ok_or(TraceError::Malformed("record count overflows u64"))?;
                accesses = c
                    .checked_mul(cycle_accesses)
                    .and_then(|n| accesses.checked_add(n))
                    .ok_or(TraceError::Malformed("access count overflows u64"))?;
            }
        }
        if records != summary.records || accesses != summary.accesses {
            return Err(TraceError::Malformed("event stream disagrees with summary"));
        }

        Ok(ExecTrace {
            key,
            dict,
            events,
            summary,
        })
    }
}

/// Decode-side cursor state over an event byte stream. Owns only
/// positions and per-dictionary address/delta state so it can live
/// next to (not borrow from) the trace that owns the bytes.
#[derive(Clone, Debug)]
pub(crate) struct EventState {
    pos: usize,
    /// Per dictionary entry: addresses of its most recent record.
    addrs: Vec<Vec<u64>>,
    /// Per dictionary entry: deltas of its most recent record.
    deltas: Vec<Vec<i64>>,
    /// Entry ids of the last `MAX_PERIOD` explicitly decoded records —
    /// the window `op 0` cycle runs resolve against. Run-expanded
    /// records never enter it (the writer mirrors this exactly).
    tail: VecDeque<usize>,
    /// Cycle of the active run (empty = none).
    cycle: Vec<usize>,
    /// Next position within `cycle`.
    cycle_pos: usize,
    /// Records remaining in the active run (`period * count` total).
    run_left: u64,
}

impl EventState {
    pub(crate) fn new(dict: &[DictEntry]) -> Self {
        EventState {
            pos: 0,
            addrs: dict.iter().map(|e| vec![0u64; e.slots.len()]).collect(),
            deltas: dict.iter().map(|e| vec![0i64; e.slots.len()]).collect(),
            tail: VecDeque::with_capacity(MAX_PERIOD),
            cycle: Vec::new(),
            cycle_pos: 0,
            run_left: 0,
        }
    }

    /// Addresses of the most recent record of dictionary entry `d`.
    pub(crate) fn addrs(&self, d: usize) -> &[u64] {
        &self.addrs[d]
    }

    /// Advance to the next dynamic record, updating that entry's
    /// address state. Returns the dictionary index, or `None` at
    /// end-of-stream.
    pub(crate) fn next_record(&mut self, events: &[u8]) -> Result<Option<usize>, TraceError> {
        if self.run_left == 0 {
            if self.pos >= events.len() {
                return Ok(None);
            }
            let op = codec::read_varint(events, &mut self.pos)?;
            if op >= 1 {
                let d = ((op - 1) >> 1) as usize;
                if d >= self.addrs.len() {
                    return Err(TraceError::Malformed(
                        "record references unknown dict entry",
                    ));
                }
                let (addrs, deltas) = (&mut self.addrs[d], &mut self.deltas[d]);
                if op & 1 == 1 {
                    // Full record: every slot delta.
                    for i in 0..addrs.len() {
                        let delta = codec::read_signed(events, &mut self.pos)?;
                        addrs[i] = addrs[i].wrapping_add(delta as u64);
                        deltas[i] = delta;
                    }
                } else {
                    // Sparse record: only the changed slots, then every
                    // slot re-advances by its (possibly updated) delta.
                    let n = codec::read_varint(events, &mut self.pos)?;
                    for _ in 0..n {
                        let i = codec::read_varint(events, &mut self.pos)? as usize;
                        if i >= deltas.len() {
                            return Err(TraceError::Malformed("sparse slot out of range"));
                        }
                        deltas[i] = codec::read_signed(events, &mut self.pos)?;
                    }
                    for (a, &dl) in addrs.iter_mut().zip(deltas.iter()) {
                        *a = a.wrapping_add(dl as u64);
                    }
                }
                if self.tail.len() == MAX_PERIOD {
                    self.tail.pop_front();
                }
                self.tail.push_back(d);
                return Ok(Some(d));
            }
            // op == 0: start a cycle run over the last `p` records.
            let p = codec::read_varint(events, &mut self.pos)?;
            let c = codec::read_varint(events, &mut self.pos)?;
            if p == 0 || p > self.tail.len().min(MAX_PERIOD) as u64 {
                return Err(TraceError::Malformed("run period exceeds record window"));
            }
            if c == 0 {
                return Err(TraceError::Malformed("empty run"));
            }
            let p = p as usize;
            self.run_left = (p as u64)
                .checked_mul(c)
                .ok_or(TraceError::Malformed("run length overflows u64"))?;
            self.cycle.clear();
            self.cycle
                .extend(self.tail.iter().skip(self.tail.len() - p));
            self.cycle_pos = 0;
        }
        // Inside a run: each entry re-advances by its recorded deltas.
        let d = self.cycle[self.cycle_pos];
        self.cycle_pos += 1;
        if self.cycle_pos == self.cycle.len() {
            self.cycle_pos = 0;
        }
        self.run_left -= 1;
        let (addrs, deltas) = (&mut self.addrs[d], &self.deltas[d]);
        for (a, &dl) in addrs.iter_mut().zip(deltas.iter()) {
            *a = a.wrapping_add(dl as u64);
        }
        Ok(Some(d))
    }
}
