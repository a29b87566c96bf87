//! Capture side: builds the dictionary and the delta/RLE event stream
//! while the live run executes.

use crate::codec;
use crate::trace::{DictEntry, ExecTrace, SlotTemplate, TraceKey, TraceSummary, MAX_PERIOD};
use std::collections::{HashMap, VecDeque};
use umi_ir::{BlockId, MemAccess};
use umi_vm::{AccessSink, VmStats};

#[derive(Debug)]
struct DictBuild {
    block: BlockId,
    slots: Vec<SlotTemplate>,
    /// Addresses of this entry's most recent record.
    addrs: Vec<u64>,
    /// Deltas of this entry's most recent record.
    deltas: Vec<i64>,
}

/// Records a native execution stream into the compact trace encoding.
///
/// Two capture modes share the machinery:
///
/// * **Program mode** — the execution loop calls
///   [`record_block`](TraceWriter::record_block) once per executed
///   block with the block's access batch (the `DbiRuntime` does this
///   when a tracer is attached). Finish with
///   [`finish`](TraceWriter::finish).
/// * **Raw mode** — an [`AccessSink`] feed: batches accumulate via
///   `access`/`access_batch`; [`end_block_auto`](TraceWriter::end_block_auto)
///   closes each pseudo-block, deriving a synthetic dictionary id from
///   the batch's `(pc, width, kind)` template. Finish with
///   [`finish_raw`](TraceWriter::finish_raw).
#[derive(Debug, Default)]
pub struct TraceWriter {
    dict: Vec<DictBuild>,
    /// `block.index() -> dict index + 1` (0 = unseen), program mode.
    dict_of_block: Vec<u32>,
    /// Template -> synthetic dict index, raw mode.
    template_ids: HashMap<Vec<(u64, u8, u8)>, u32>,
    events: Vec<u8>,
    /// Accesses buffered by the sink impl until the block boundary.
    pending: Vec<MemAccess>,
    /// Entry ids of the last `MAX_PERIOD` explicitly encoded records —
    /// the window cycle runs are matched against. Run-compressed
    /// records never enter it (the decoder mirrors this exactly).
    tail: VecDeque<u32>,
    /// Active run cycle (empty = none): a snapshot of the last `p`
    /// entries of `tail` that incoming repeat records are tracking.
    cycle: Vec<u32>,
    /// Progress within the current (incomplete) cycle repetition.
    cycle_pos: usize,
    /// Completed full cycle repetitions not yet flushed.
    runs: u64,
    records: u64,
    accesses: u64,
    loads: u64,
    stores: u64,
    scratch: Vec<i64>,
}

impl TraceWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        TraceWriter::default()
    }

    /// Record one executed block and its access batch (program mode).
    /// The batch may be empty; the block-boundary event is still
    /// recorded so replay reproduces the exact block stream.
    pub fn record_block(&mut self, block: BlockId, accesses: &[MemAccess]) {
        let idx = block.index();
        if self.dict_of_block.len() <= idx {
            self.dict_of_block.resize(idx + 1, 0);
        }
        let d = match self.dict_of_block[idx] {
            0 => {
                let d = self.new_entry(block, accesses);
                self.dict_of_block[idx] = d + 1;
                d
            }
            n => n - 1,
        };
        self.emit(d, accesses);
    }

    /// Close the pending sink-fed batch against an explicit block id.
    pub fn end_block(&mut self, block: BlockId) {
        let accesses = std::mem::take(&mut self.pending);
        self.record_block(block, &accesses);
        self.pending = accesses;
        self.pending.clear();
    }

    /// Close the pending sink-fed batch as a pseudo-block whose
    /// identity is its access template (raw mode).
    pub fn end_block_auto(&mut self) {
        let key: Vec<(u64, u8, u8)> = self
            .pending
            .iter()
            .map(|a| (a.pc.0, a.width, a.kind as u8))
            .collect();
        let d = match self.template_ids.get(&key) {
            Some(&d) => d,
            None => {
                let accesses = std::mem::take(&mut self.pending);
                let d = self.new_entry(BlockId(self.dict.len() as u32), &accesses);
                self.pending = accesses;
                self.template_ids.insert(key, d);
                d
            }
        };
        let accesses = std::mem::take(&mut self.pending);
        self.emit(d, &accesses);
        self.pending = accesses;
        self.pending.clear();
    }

    fn new_entry(&mut self, block: BlockId, accesses: &[MemAccess]) -> u32 {
        let d = self.dict.len() as u32;
        self.dict.push(DictBuild {
            block,
            slots: accesses
                .iter()
                .map(|a| SlotTemplate {
                    pc: a.pc,
                    width: a.width,
                    kind: a.kind,
                })
                .collect(),
            addrs: vec![0; accesses.len()],
            deltas: vec![0; accesses.len()],
        });
        d
    }

    fn emit(&mut self, d: u32, accesses: &[MemAccess]) {
        let entry = &mut self.dict[d as usize];
        debug_assert_eq!(entry.slots.len(), accesses.len(), "template drift");
        debug_assert!(entry
            .slots
            .iter()
            .zip(accesses)
            .all(|(s, a)| s.pc == a.pc && s.width == a.width && s.kind == a.kind));
        self.records += 1;
        self.accesses += accesses.len() as u64;
        for a in accesses {
            match a.kind {
                umi_ir::AccessKind::Load => self.loads += 1,
                umi_ir::AccessKind::Store => self.stores += 1,
                umi_ir::AccessKind::Prefetch => {}
            }
        }
        self.scratch.clear();
        self.scratch.extend(
            accesses
                .iter()
                .zip(entry.addrs.iter())
                .map(|(a, &prev)| a.addr.wrapping_sub(prev) as i64),
        );
        let changed = self
            .scratch
            .iter()
            .zip(entry.deltas.iter())
            .filter(|(s, p)| s != p)
            .count();
        // A *repeat* record advances its entry by the entry's previous
        // deltas — it carries no new information beyond its entry id,
        // and a periodic sequence of repeats (a steady-state loop body,
        // even one spanning several blocks) collapses into a cycle run.
        if changed == 0 {
            for (slot, a) in entry.addrs.iter_mut().zip(accesses) {
                *slot = a.addr;
            }
            if !self.cycle.is_empty() {
                if self.cycle[self.cycle_pos] == d {
                    self.cycle_pos += 1;
                    if self.cycle_pos == self.cycle.len() {
                        self.cycle_pos = 0;
                        self.runs += 1;
                    }
                    return;
                }
                self.flush_run();
            }
            // Start a new tentative run at the smallest period that
            // makes this record a cycle continuation.
            let max_p = self.tail.len().min(MAX_PERIOD);
            if let Some(p) = (1..=max_p).find(|&p| self.tail[self.tail.len() - p] == d) {
                self.cycle.clear();
                self.cycle
                    .extend(self.tail.iter().skip(self.tail.len() - p));
                self.cycle_pos = 1 % p;
                self.runs = u64::from(p == 1);
                return;
            }
            // No window match: a no-change sparse record (two bytes).
            self.encode_repeat(d);
            return;
        }
        self.flush_run();
        let entry = &mut self.dict[d as usize];
        let n_slots = entry.deltas.len();
        // Most records change only their LCG-jitter slots; listing the
        // changed (index, delta) pairs beats re-encoding every slot as
        // soon as under half the slots moved.
        if changed * 2 < n_slots {
            codec::write_varint(&mut self.events, 2 + 2 * u64::from(d));
            codec::write_varint(&mut self.events, changed as u64);
            for (i, (&s, &p)) in self.scratch.iter().zip(entry.deltas.iter()).enumerate() {
                if s != p {
                    codec::write_varint(&mut self.events, i as u64);
                    codec::write_signed(&mut self.events, s);
                }
            }
        } else {
            codec::write_varint(&mut self.events, 1 + 2 * u64::from(d));
            for &delta in &self.scratch {
                codec::write_signed(&mut self.events, delta);
            }
        }
        entry.deltas.clear();
        entry.deltas.extend_from_slice(&self.scratch);
        for (slot, a) in entry.addrs.iter_mut().zip(accesses) {
            *slot = a.addr;
        }
        self.push_tail(d);
    }

    /// Append a no-change sparse record (two bytes for small dicts):
    /// entry `d` executed again with every slot delta unchanged, but no
    /// cycle run could absorb it.
    fn encode_repeat(&mut self, d: u32) {
        codec::write_varint(&mut self.events, 2 + 2 * u64::from(d));
        codec::write_varint(&mut self.events, 0);
        self.push_tail(d);
    }

    fn push_tail(&mut self, d: u32) {
        if self.tail.len() == MAX_PERIOD {
            self.tail.pop_front();
        }
        self.tail.push_back(d);
    }

    /// Emit the pending cycle run: completed repetitions as one
    /// `op 0, period, count` event, then the records of any partial
    /// repetition as no-change sparse records (their deltas are
    /// unchanged by construction, so late encoding is byte-faithful).
    fn flush_run(&mut self) {
        if self.cycle.is_empty() {
            return;
        }
        let runs = std::mem::take(&mut self.runs);
        if runs > 0 {
            codec::write_varint(&mut self.events, 0);
            codec::write_varint(&mut self.events, self.cycle.len() as u64);
            codec::write_varint(&mut self.events, runs);
        }
        let mut cycle = std::mem::take(&mut self.cycle);
        for &d in &cycle[..self.cycle_pos] {
            self.encode_repeat(d);
        }
        self.cycle_pos = 0;
        cycle.clear();
        self.cycle = cycle;
    }

    /// Dynamic accesses recorded so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Seal a program-mode capture. `stats` are the finished run's VM
    /// statistics (replay reproduces them and sources `heap_allocated`
    /// from here).
    pub fn finish(mut self, key: TraceKey, stats: VmStats) -> ExecTrace {
        self.flush_run();
        debug_assert_eq!(stats.blocks, self.records, "one record per executed block");
        debug_assert_eq!(stats.loads, self.loads, "demand loads drifted from capture");
        debug_assert_eq!(stats.stores, self.stores, "stores drifted from capture");
        let summary = TraceSummary {
            stats,
            accesses: self.accesses,
            records: self.records,
        };
        self.seal(key, summary)
    }

    /// Seal a raw-mode capture; the summary is synthesized from the
    /// recorded stream (no VM ran).
    pub fn finish_raw(mut self, key: TraceKey) -> ExecTrace {
        self.flush_run();
        let summary = TraceSummary {
            stats: VmStats {
                insns: 0,
                loads: self.loads,
                stores: self.stores,
                blocks: self.records,
                heap_allocated: 0,
            },
            accesses: self.accesses,
            records: self.records,
        };
        self.seal(key, summary)
    }

    fn seal(self, key: TraceKey, summary: TraceSummary) -> ExecTrace {
        debug_assert!(self.pending.is_empty(), "unterminated sink-fed batch");
        let dict = self
            .dict
            .into_iter()
            .map(|b| DictEntry {
                block: b.block,
                slots: b.slots,
            })
            .collect();
        ExecTrace::new(key, dict, self.events, summary)
    }
}

impl AccessSink for TraceWriter {
    fn access(&mut self, a: MemAccess) {
        self.pending.push(a);
    }

    fn access_batch(&mut self, batch: &[MemAccess]) {
        self.pending.extend_from_slice(batch);
    }
}
