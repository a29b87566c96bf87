//! The two-level profiling data structure (paper §4.2).
//!
//! "Memory references are recorded in a two-level data structure. A unique
//! *address profile* is associated with each code trace. The address
//! profile is two-dimensional, with each row corresponding to a single
//! execution of the trace. [...] On every trace entry, a record is
//! allocated in a *trace profile* to point to a new row in the address
//! profile."

use umi_dbi::TraceId;
use umi_ir::Pc;

/// Why the profile analyzer was triggered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerReason {
    /// An address profile ran out of rows — the condition the prolog's
    /// single conditional jump checks.
    AddressProfileFull,
    /// The global trace profile buffer filled — detected "for free" by the
    /// write-protected guard page.
    TraceProfileFull,
}

/// One recorded memory reference: profile column, effective address, and
/// whether it was a store (the analyzer separates load and store
/// accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfiledRef {
    /// Column = index of the instrumented operation within its trace.
    pub op: u16,
    /// Referenced address.
    pub addr: u64,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// The address profile of one instrumented trace: rows are trace
/// executions, columns are instrumented operations.
///
/// Rows are stored flattened — one shared record buffer plus per-row start
/// offsets — so beginning a row (every entry of an instrumented trace) is
/// a push, not a heap allocation.
#[derive(Clone, Debug, Default)]
pub struct AddressProfile {
    /// Column owners: `ops[i]` is the instruction recorded in column `i`.
    pub ops: Vec<Pc>,
    /// All recorded references, rows back to back.
    refs: Vec<ProfiledRef>,
    /// `row_starts[i]` is the offset of row `i` in `refs`.
    row_starts: Vec<u32>,
    max_rows: usize,
}

impl AddressProfile {
    /// Creates an empty profile for the given columns.
    pub fn new(ops: Vec<Pc>, max_rows: usize) -> AddressProfile {
        AddressProfile {
            ops,
            refs: Vec::new(),
            row_starts: Vec::new(),
            max_rows,
        }
    }

    /// Number of recorded rows (trace executions).
    pub fn row_count(&self) -> usize {
        self.row_starts.len()
    }

    /// Whether no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.row_starts.is_empty()
    }

    /// Whether the profile is out of rows.
    pub fn is_full(&self) -> bool {
        self.row_starts.len() >= self.max_rows
    }

    /// The rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &[ProfiledRef]> + '_ {
        (0..self.row_starts.len()).map(move |i| {
            let start = self.row_starts[i] as usize;
            let end = self
                .row_starts
                .get(i + 1)
                .map_or(self.refs.len(), |&e| e as usize);
            &self.refs[start..end]
        })
    }

    /// Every recorded reference, rows back to back in row order.
    pub(crate) fn refs(&self) -> &[ProfiledRef] {
        &self.refs
    }

    /// The address sequence recorded for column `op` (one entry per row
    /// that executed the operation) — the per-instruction view used for
    /// stride discovery.
    pub fn column(&self, op: u16) -> Vec<u64> {
        self.refs
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.addr)
            .collect()
    }

    fn begin_row(&mut self) {
        debug_assert!(!self.is_full());
        self.row_starts.push(self.refs.len() as u32);
    }

    fn record(&mut self, op: u16, addr: u64, is_store: bool) {
        if !self.row_starts.is_empty() {
            self.refs.push(ProfiledRef { op, addr, is_store });
        }
    }
}

/// All live profiles plus the global trace-profile accounting.
///
/// Trace ids are indices into the DBI's trace cache, so they are dense
/// from zero: profiles live in a flat `Vec` indexed by id rather than a
/// hash map. The runtime consults the store on every trace entry and
/// every instrumented reference, and the direct index is measurably
/// cheaper than hashing; it also makes [`drain`](Self::drain)'s
/// sorted-by-id contract fall out of plain iteration.
#[derive(Clone, Debug)]
pub struct ProfileStore {
    /// `profiles[tid]` is the trace's live profile, `None` while the
    /// trace is unregistered.
    profiles: Vec<Option<AddressProfile>>,
    /// Rows allocated since the last drain — the trace-profile usage.
    total_rows: usize,
    trace_profile_capacity: usize,
    max_rows: usize,
}

impl ProfileStore {
    /// Creates an empty store with the given capacities.
    pub fn new(trace_profile_capacity: usize, max_rows: usize) -> ProfileStore {
        ProfileStore {
            profiles: Vec::new(),
            total_rows: 0,
            trace_profile_capacity,
            max_rows,
        }
    }

    #[inline]
    fn slot(&self, trace: TraceId) -> Option<&AddressProfile> {
        self.profiles.get(trace.0 as usize).and_then(Option::as_ref)
    }

    #[inline]
    fn slot_mut(&mut self, trace: TraceId) -> Option<&mut AddressProfile> {
        self.profiles
            .get_mut(trace.0 as usize)
            .and_then(Option::as_mut)
    }

    /// Registers (or re-registers) a trace for profiling with the given
    /// column owners.
    pub fn register(&mut self, trace: TraceId, ops: Vec<Pc>) {
        let i = trace.0 as usize;
        if i >= self.profiles.len() {
            self.profiles.resize(i + 1, None);
        }
        self.profiles[i] = Some(AddressProfile::new(ops, self.max_rows));
    }

    /// Whether the trace currently has a profile.
    pub fn is_registered(&self, trace: TraceId) -> bool {
        self.slot(trace).is_some()
    }

    /// Removes a trace's profile (profiling switched off), returning it.
    pub fn unregister(&mut self, trace: TraceId) -> Option<AddressProfile> {
        self.profiles
            .get_mut(trace.0 as usize)
            .and_then(Option::take)
    }

    /// Rows allocated since the last drain.
    pub fn trace_profile_usage(&self) -> usize {
        self.total_rows
    }

    /// Checks the prolog/guard-page conditions for `trace`. `Some` means
    /// the analyzer must run (and drain) before a new row can begin.
    pub fn trigger(&self, trace: TraceId) -> Option<TriggerReason> {
        if self.total_rows >= self.trace_profile_capacity {
            return Some(TriggerReason::TraceProfileFull);
        }
        match self.slot(trace) {
            Some(p) if p.is_full() => Some(TriggerReason::AddressProfileFull),
            _ => None,
        }
    }

    /// Starts a new row for `trace` (a trace-profile record pointing to a
    /// fresh address-profile row).
    ///
    /// # Panics
    ///
    /// Panics if the trace is not registered or a trigger condition is
    /// pending (the runtime must drain first).
    pub fn begin_row(&mut self, trace: TraceId) {
        assert!(
            self.trigger(trace).is_none(),
            "begin_row while analyzer trigger pending"
        );
        let p = self.slot_mut(trace).expect("trace not registered");
        p.begin_row();
        self.total_rows += 1;
    }

    /// Records one reference into the current row of `trace`.
    #[inline]
    pub fn record(&mut self, trace: TraceId, op: u16, addr: u64, is_store: bool) {
        if let Some(p) = self.slot_mut(trace) {
            p.record(op, addr, is_store);
        }
    }

    /// Whether a [`drain`](Self::drain) would return any profile.
    pub fn drain_would_yield(&self) -> bool {
        self.profiles.iter().flatten().any(|p| !p.is_empty())
    }

    /// Takes every non-empty profile for analysis, leaving fresh empty
    /// profiles in place (same columns), and resets the trace-profile
    /// usage. Returns `(trace, profile)` pairs sorted by trace id (the
    /// natural order of the id-indexed store).
    pub fn drain(&mut self) -> Vec<(TraceId, AddressProfile)> {
        let mut out = Vec::new();
        for (i, slot) in self.profiles.iter_mut().enumerate() {
            if let Some(p) = slot {
                if !p.is_empty() {
                    let fresh = AddressProfile::new(p.ops.clone(), self.max_rows);
                    out.push((TraceId(i as u32), std::mem::replace(p, fresh)));
                }
            }
        }
        self.total_rows = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ProfileStore {
        ProfileStore::new(8, 3) // tiny capacities for testing
    }

    #[test]
    fn rows_and_records_round_trip() {
        let mut s = store();
        let t = TraceId(0);
        s.register(t, vec![Pc(0x10), Pc(0x14)]);
        s.begin_row(t);
        s.record(t, 0, 0x1000, false);
        s.record(t, 1, 0x2000, true);
        s.begin_row(t);
        s.record(t, 0, 0x1040, false);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        let p = &drained[0].1;
        assert_eq!(p.row_count(), 2);
        assert_eq!(p.column(0), vec![0x1000, 0x1040]);
        assert_eq!(p.column(1), vec![0x2000]);
        assert_eq!(p.ops, vec![Pc(0x10), Pc(0x14)]);
    }

    #[test]
    fn address_profile_full_triggers() {
        let mut s = store();
        let t = TraceId(1);
        s.register(t, vec![Pc(0x10)]);
        for _ in 0..3 {
            assert_eq!(s.trigger(t), None);
            s.begin_row(t);
        }
        assert_eq!(s.trigger(t), Some(TriggerReason::AddressProfileFull));
    }

    #[test]
    fn trace_profile_full_triggers_globally() {
        let mut s = ProfileStore::new(4, 100);
        let a = TraceId(0);
        let b = TraceId(1);
        s.register(a, vec![Pc(1)]);
        s.register(b, vec![Pc(2)]);
        s.begin_row(a);
        s.begin_row(b);
        s.begin_row(a);
        s.begin_row(b);
        assert_eq!(s.trigger(a), Some(TriggerReason::TraceProfileFull));
        assert_eq!(s.trigger(b), Some(TriggerReason::TraceProfileFull));
        assert_eq!(s.trace_profile_usage(), 4);
    }

    #[test]
    fn drain_resets_and_keeps_registration() {
        let mut s = store();
        let t = TraceId(2);
        s.register(t, vec![Pc(1)]);
        s.begin_row(t);
        s.record(t, 0, 0xabc, false);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(s.trace_profile_usage(), 0);
        assert!(s.is_registered(t));
        // Fresh profile is empty; draining again yields nothing.
        assert!(s.drain().is_empty());
    }

    #[test]
    #[should_panic(expected = "trigger pending")]
    fn begin_row_panics_when_full() {
        let mut s = store();
        let t = TraceId(0);
        s.register(t, vec![Pc(1)]);
        for _ in 0..3 {
            s.begin_row(t);
        }
        s.begin_row(t);
    }

    #[test]
    fn unregister_stops_profiling() {
        let mut s = store();
        let t = TraceId(0);
        s.register(t, vec![Pc(1)]);
        s.begin_row(t);
        let p = s.unregister(t).expect("was registered");
        assert_eq!(p.row_count(), 1);
        assert!(!s.is_registered(t));
        // Recording into an unregistered trace is a silent no-op.
        s.record(t, 0, 0x1, false);
    }
}
