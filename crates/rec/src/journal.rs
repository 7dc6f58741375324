//! The journal data model and its binary encoding.
//!
//! A [`Recording`] is the serialisable artefact: run metadata (design
//! fingerprint, policy, environment streams, injected faults), a dense
//! window of [`StepRecord`]s starting at [`Recording::first_step`], and a
//! sorted list of [`Checkpoint`]s. The encoding is a small, fully
//! self-contained binary format — magic + version, LEB128 varints, zigzag
//! deltas for the fired-transition sets — written and read through
//! [`etpn_core::bytes`], so corrupt input fails with its exact byte offset.
//!
//! ## Invariants
//!
//! * `records[i]` describes control step `first_step + i`.
//! * A checkpoint at step `s` snapshots the configuration **before** step
//!   `s` executes (before control-fault perturbation), so replaying from
//!   it re-derives step `s` exactly.
//! * Checkpoints are strictly increasing in `step` and never precede
//!   `first_step`: ring eviction drops every checkpoint that loses its
//!   record window. Nothing guarantees one at `first_step`, so a ring
//!   recording replays from its first checkpoint, and the records before
//!   it are kept only for forensics.
//! * `digest` is a [`etpn_core::StableHasher`] hash of the checkpointed
//!   configuration: equal digests at equal steps mean (up to 64-bit
//!   collision) equal configurations — the divergence engine bisects on
//!   them without decoding full state vectors.

use etpn_core::bytes::{put_u64, put_value, put_varint, unzigzag, zigzag, DecodeError, Reader};
use etpn_core::{ArcId, Etpn, PlaceId, PortId, StableHasher, TransId, Value, VertexId};

use crate::fault::{Fault, FaultKind, FaultSite, FaultWindow};

/// Step-record flag: a control fault (token loss/dup) perturbed the
/// marking before this step's evaluation.
pub const FLAG_CONTROL_FAULT: u8 = 1;
/// Step-record flag: a data fault forced port values during this step's
/// evaluation.
pub const FLAG_DATA_FAULT: u8 = 2;

/// Everything one control step decided and committed, as an owned row.
///
/// Evaluation itself is *not* journaled: it is a pure function of the
/// configuration, so replay re-executes it and uses the journal only to
/// (a) re-apply the firing decision without re-deciding, and (b) verify
/// that the re-derived effects match what was recorded.
///
/// The simulation engine fills one reused `StepRecord` per journaled
/// step and hands it to the [`crate::Recorder`], which appends it to its
/// [`Recording`]. Inside a recording the rows are stored column-wise (one
/// shared array per field) so building and dropping a journal costs a
/// handful of allocations, not four per step; [`Recording::record`] hands
/// out borrowed [`StepView`]s, and [`StepRecord::view`] lends the same
/// view of an owned row, so one comparator
/// ([`crate::divergence::step_diff`]) checks both.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StepRecord {
    /// Transitions fired this step, in firing order (the policy's order
    /// filtered to those actually enabled at their turn).
    pub fired: Vec<TransId>,
    /// Register output ports latched at commit, with the stored value, in
    /// latch order. Only *defined* values latch (rule 9), so every entry
    /// is `Value::Def`.
    pub latched: Vec<(PortId, Value)>,
    /// Input vertices whose stream cursor advanced at commit.
    pub advanced: Vec<VertexId>,
    /// External events appended this step: `(arc, value, labelling place)`
    /// in commit order (the final trace re-sorts by `(step, arc, place)`;
    /// within one step the commit order is itself deterministic).
    pub events: Vec<(ArcId, Value, PlaceId)>,
    /// Fault activity this step ([`FLAG_CONTROL_FAULT`] /
    /// [`FLAG_DATA_FAULT`]).
    pub flags: u8,
}

impl StepRecord {
    /// Reset to an empty record, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.fired.clear();
        self.latched.clear();
        self.advanced.clear();
        self.events.clear();
        self.flags = 0;
    }

    /// The borrowed view of this row.
    pub fn view(&self) -> StepView<'_> {
        StepView {
            fired: &self.fired,
            latched: &self.latched,
            advanced: &self.advanced,
            events: &self.events,
            flags: self.flags,
        }
    }
}

/// A borrowed view of one journaled step inside a [`Recording`] — the
/// zero-copy counterpart of [`StepRecord`], sliced out of the recording's
/// column arrays.
#[derive(Clone, Copy, Debug)]
pub struct StepView<'a> {
    /// Transitions fired this step, in firing order.
    pub fired: &'a [TransId],
    /// Register latches committed this step, in latch order.
    pub latched: &'a [(PortId, Value)],
    /// Input vertices whose stream cursor advanced at commit.
    pub advanced: &'a [VertexId],
    /// External events appended this step.
    pub events: &'a [(ArcId, Value, PlaceId)],
    /// Fault activity this step.
    pub flags: u8,
}

impl StepView<'_> {
    /// Copy the view out into an owned [`StepRecord`].
    pub fn to_owned(self) -> StepRecord {
        StepRecord {
            fired: self.fired.to_vec(),
            latched: self.latched.to_vec(),
            advanced: self.advanced.to_vec(),
            events: self.events.to_vec(),
            flags: self.flags,
        }
    }
}

/// Per-row end offsets into a [`Recording`]'s column arrays. Row `i`
/// spans `rows[i-1].*_end .. rows[i].*_end` (from 0 for the first row).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct RowEnds {
    pub(crate) fired_end: usize,
    pub(crate) latched_end: usize,
    pub(crate) advanced_end: usize,
    pub(crate) events_end: usize,
    pub(crate) flags: u8,
}

/// A configuration snapshot taken before a step executes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// The step this snapshot precedes.
    pub step: u64,
    /// Token count per place (raw-place-id indexed).
    pub marking: Vec<u32>,
    /// Latched value per sequential output port (raw-port-id indexed).
    pub state: Vec<Value>,
    /// Stream position per vertex (raw-vertex-id indexed).
    pub cursors: Vec<u64>,
    /// Stable digest of the above (see [`Checkpoint::compute_digest`]).
    pub digest: u64,
}

fn hash_value(h: &mut StableHasher, v: Value) {
    match v {
        Value::Undef => h.write_u64(u64::MAX),
        Value::Def(x) => {
            h.write_bool(true);
            h.write_i64(x);
        }
    }
}

impl Checkpoint {
    /// Build a checkpoint, computing its digest.
    pub fn new(step: u64, marking: Vec<u32>, state: Vec<Value>, cursors: Vec<u64>) -> Self {
        let digest = Self::compute_digest(step, &marking, &state, &cursors);
        Self {
            step,
            marking,
            state,
            cursors,
            digest,
        }
    }

    /// The process-independent digest of a checkpointed configuration.
    pub fn compute_digest(step: u64, marking: &[u32], state: &[Value], cursors: &[u64]) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(step);
        h.write_usize(marking.len());
        for &t in marking {
            h.write_u32(t);
        }
        h.write_usize(state.len());
        for &v in state {
            hash_value(&mut h, v);
        }
        h.write_usize(cursors.len());
        for &k in cursors {
            h.write_u64(k);
        }
        h.finish()
    }
}

/// Journal retention mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecordMode {
    /// Keep every step record (bounded runs, forensics, CI).
    Full,
    /// Keep only the most recent `capacity` step records — the
    /// always-on flight-recorder mode. The live window holds up to
    /// `2 × capacity` rows and drops the oldest `capacity` at once, so
    /// steady-state recording allocates nothing (see [`crate::Recorder`]).
    Ring(usize),
}

/// Recorder configuration: retention mode plus checkpoint cadence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordConfig {
    /// Retention mode.
    pub mode: RecordMode,
    /// Checkpoint every `every` steps (steps `0, every, 2·every, …`).
    pub every: u64,
}

impl RecordConfig {
    /// Full journal with checkpoints every `every` steps.
    pub fn full(every: u64) -> Self {
        Self {
            mode: RecordMode::Full,
            every: every.max(1),
        }
    }

    /// Ring of `capacity` records with checkpoints every `every` steps.
    pub fn ring(capacity: usize, every: u64) -> Self {
        Self {
            mode: RecordMode::Ring(capacity.max(1)),
            every: every.max(1),
        }
    }
}

impl Default for RecordConfig {
    /// The always-on default: an 8192-step ring, checkpoint every 1024
    /// steps (so the ring always spans several restorable checkpoints).
    fn default() -> Self {
        Self::ring(8192, 1024)
    }
}

/// Run metadata: everything needed to rebuild an equivalent simulator.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RecMeta {
    /// Design fingerprint ([`etpn_core::Etpn::fingerprint`]); recordings
    /// only replay/compare against the design they were made from.
    pub design_fp: u64,
    /// Environment fingerprint, when the environment had one.
    pub env_fp: Option<u64>,
    /// Firing-policy tag: `0` maximal-step, `1` random-maximal, `2`
    /// single-random.
    pub policy_tag: u8,
    /// Policy RNG seed (0 for the deterministic policy).
    pub policy_seed: u64,
    /// Checkpoint cadence the recording was made with.
    pub every: u64,
    /// Ring capacity, or `None` for a full journal.
    pub ring: Option<usize>,
    /// Embedded scripted input streams (name-sorted), so replay needs no
    /// out-of-band environment. Empty when the environment was not
    /// scriptable.
    pub streams: Vec<(String, Vec<Value>)>,
    /// The environment's repeat-last-value flag.
    pub repeat_last: bool,
    /// Faults injected during the recorded run.
    pub faults: Vec<Fault>,
}

/// A complete recording: metadata + step records + checkpoints.
///
/// Step records are stored column-wise: one shared array per field
/// ([`RowEnds`] carrying per-row offsets), so a recording of N steps owns
/// five allocations rather than up to `4·N`. [`Recording::record`] slices
/// a [`StepView`] out in O(1).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Recording {
    /// Run metadata.
    pub meta: RecMeta,
    /// Step index of the first retained record (non-zero after ring
    /// eviction).
    pub first_step: u64,
    /// Checkpoints, strictly increasing in step, all `≥ first_step`.
    pub checkpoints: Vec<Checkpoint>,
    pub(crate) rows: Vec<RowEnds>,
    pub(crate) fired: Vec<TransId>,
    pub(crate) latched: Vec<(PortId, Value)>,
    pub(crate) advanced: Vec<VertexId>,
    pub(crate) events: Vec<(ArcId, Value, PlaceId)>,
}

impl Recording {
    /// Number of journaled steps.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no step was journaled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One past the last journaled step index.
    pub fn end_step(&self) -> u64 {
        self.first_step + self.rows.len() as u64
    }

    /// Refuses a recording of another design, or one with a checkpoint
    /// whose marking, state or cursor vector is not as long as `g` needs
    /// (restoring it would index out of bounds or silently drop places).
    /// Replay and [`crate::DivergenceReport::between`] both check this.
    pub fn fits(&self, g: &Etpn) -> Result<(), RecError> {
        let (left, right) = (g.fingerprint(), self.meta.design_fp);
        if left != right {
            return Err(RecError::DesignMismatch { left, right });
        }
        let (dp, ctl) = (&g.dp, &g.ctl);
        for ck in &self.checkpoints {
            for (what, got, want) in [
                ("marking", ck.marking.len(), ctl.places().capacity_bound()),
                ("state", ck.state.len(), dp.ports().capacity_bound()),
                ("cursors", ck.cursors.len(), dp.vertices().capacity_bound()),
            ] {
                if got != want {
                    let step = ck.step;
                    let detail = format!("{what} has {got} entries, the design needs {want}");
                    return Err(RecError::CheckpointMisfit { step, detail });
                }
            }
        }
        Ok(())
    }

    /// The view of row `i` (callers have bounds-checked `i`).
    fn view_at(&self, i: usize) -> StepView<'_> {
        let lo = if i == 0 {
            RowEnds::default()
        } else {
            self.rows[i - 1]
        };
        let hi = self.rows[i];
        StepView {
            fired: &self.fired[lo.fired_end..hi.fired_end],
            latched: &self.latched[lo.latched_end..hi.latched_end],
            advanced: &self.advanced[lo.advanced_end..hi.advanced_end],
            events: &self.events[lo.events_end..hi.events_end],
            flags: hi.flags,
        }
    }

    /// The record of step `step`, when it is inside the retained window.
    pub fn record(&self, step: u64) -> Option<StepView<'_>> {
        let i = step.checked_sub(self.first_step)? as usize;
        (i < self.rows.len()).then(|| self.view_at(i))
    }

    /// Append the next step's record (step `end_step()`).
    #[inline]
    pub fn push_record(&mut self, r: &StepRecord) {
        /// Append `items`, skipping the copy call for the many empty
        /// fields of a typical row; returns the column's new end.
        #[inline]
        fn append<T: Copy>(col: &mut Vec<T>, items: &[T]) -> usize {
            if !items.is_empty() {
                col.extend_from_slice(items);
            }
            col.len()
        }
        self.rows.push(RowEnds {
            fired_end: append(&mut self.fired, &r.fired),
            latched_end: append(&mut self.latched, &r.latched),
            advanced_end: append(&mut self.advanced, &r.advanced),
            events_end: append(&mut self.events, &r.events),
            flags: r.flags,
        });
    }

    /// Drop the oldest `n` rows (`n ≤ len()`) and every checkpoint that
    /// falls before the new `first_step`. Keeps every column's capacity,
    /// so a ring that trims in place allocates nothing.
    pub(crate) fn drop_front(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let cut = self.rows[n - 1];
        self.rows.drain(..n);
        for r in &mut self.rows {
            r.fired_end -= cut.fired_end;
            r.latched_end -= cut.latched_end;
            r.advanced_end -= cut.advanced_end;
            r.events_end -= cut.events_end;
        }
        self.fired.drain(..cut.fired_end);
        self.latched.drain(..cut.latched_end);
        self.advanced.drain(..cut.advanced_end);
        self.events.drain(..cut.events_end);
        self.first_step += n as u64;
        let stale = self
            .checkpoints
            .partition_point(|c| c.step < self.first_step);
        self.checkpoints.drain(..stale);
    }

    /// The latest checkpoint at or before `step`.
    pub fn checkpoint_at_or_before(&self, step: u64) -> Option<&Checkpoint> {
        self.checkpoints.iter().rev().find(|c| c.step <= step)
    }

    /// Serialise to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024 + self.rows.len() * 16);
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.meta.design_fp);
        match self.meta.env_fp {
            Some(fp) => {
                out.push(1);
                put_u64(&mut out, fp);
            }
            None => out.push(0),
        }
        out.push(self.meta.policy_tag);
        put_varint(&mut out, self.meta.policy_seed);
        put_varint(&mut out, self.meta.every);
        match self.meta.ring {
            Some(cap) => {
                out.push(1);
                put_varint(&mut out, cap as u64);
            }
            None => out.push(0),
        }
        out.push(u8::from(self.meta.repeat_last));
        put_varint(&mut out, self.meta.streams.len() as u64);
        for (name, values) in &self.meta.streams {
            put_varint(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            put_varint(&mut out, values.len() as u64);
            for &v in values {
                put_value(&mut out, v);
            }
        }
        put_varint(&mut out, self.meta.faults.len() as u64);
        for f in &self.meta.faults {
            put_fault(&mut out, f);
        }
        put_varint(&mut out, self.first_step);
        put_varint(&mut out, self.checkpoints.len() as u64);
        for c in &self.checkpoints {
            put_varint(&mut out, c.step);
            put_varint(&mut out, c.marking.len() as u64);
            for &t in &c.marking {
                put_varint(&mut out, u64::from(t));
            }
            put_varint(&mut out, c.state.len() as u64);
            for &v in &c.state {
                put_value(&mut out, v);
            }
            put_varint(&mut out, c.cursors.len() as u64);
            for &k in &c.cursors {
                put_varint(&mut out, k);
            }
            put_u64(&mut out, c.digest);
        }
        put_varint(&mut out, self.rows.len() as u64);
        for r in (0..self.rows.len()).map(|i| self.view_at(i)) {
            put_varint(&mut out, r.fired.len() as u64);
            // Delta-encoded fired set: under the common in-id-order
            // policies deltas are small positives; zigzag keeps random
            // orders legal.
            let mut prev: i64 = 0;
            for &t in r.fired {
                let cur = i64::from(t.0);
                put_varint(&mut out, zigzag(cur - prev));
                prev = cur;
            }
            put_varint(&mut out, r.latched.len() as u64);
            for &(p, v) in r.latched {
                put_varint(&mut out, u64::from(p.0));
                put_value(&mut out, v);
            }
            put_varint(&mut out, r.advanced.len() as u64);
            for &v in r.advanced {
                put_varint(&mut out, u64::from(v.0));
            }
            put_varint(&mut out, r.events.len() as u64);
            for &(a, v, s) in r.events {
                put_varint(&mut out, u64::from(a.0));
                put_value(&mut out, v);
                put_varint(&mut out, u64::from(s.0));
            }
            out.push(r.flags);
        }
        out
    }

    /// Decode from the binary format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RecError> {
        let mut c = Reader::new(bytes);
        let magic = c.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(RecError::BadMagic);
        }
        let mut meta = RecMeta {
            design_fp: c.u64()?,
            ..RecMeta::default()
        };
        meta.env_fp = match c.u8()? {
            0 => None,
            1 => Some(c.u64()?),
            other => return Err(c.error(format!("bad env-fp tag {other}")).into()),
        };
        meta.policy_tag = c.u8()?;
        meta.policy_seed = c.varint()?;
        meta.every = c.varint()?;
        meta.ring = match c.u8()? {
            0 => None,
            1 => Some(c.varint()? as usize),
            other => return Err(c.error(format!("bad ring tag {other}")).into()),
        };
        meta.repeat_last = c.u8()? != 0;
        let n_streams = c.count()?;
        for _ in 0..n_streams {
            let len = c.count()?;
            let at = c.pos();
            let name = String::from_utf8(c.take(len)?.to_vec()).map_err(|e| RecError::Corrupt {
                offset: at + e.utf8_error().valid_up_to(),
                detail: format!("stream name not UTF-8: {e}"),
            })?;
            let n = c.count()?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.value()?);
            }
            meta.streams.push((name, values));
        }
        let n_faults = c.count()?;
        for _ in 0..n_faults {
            meta.faults.push(read_fault(&mut c)?);
        }
        let first_step = c.varint()?;
        // A checkpoint takes at least 12 bytes (three empty counts, a
        // one-byte step and the digest), a row at least 5 (four empty
        // counts and its flags): the preallocations below stay within a
        // small multiple of the input.
        let n_ck = c.varint()?;
        let n_ck = c.check_count(n_ck, 12)?;
        let mut checkpoints = Vec::with_capacity(n_ck);
        for _ in 0..n_ck {
            let step = c.varint()?;
            let n = c.count()?;
            let mut marking = Vec::with_capacity(n);
            for _ in 0..n {
                marking.push(c.varint_u32("token count")?);
            }
            let n = c.count()?;
            let mut state = Vec::with_capacity(n);
            for _ in 0..n {
                state.push(c.value()?);
            }
            let n = c.count()?;
            let mut cursors = Vec::with_capacity(n);
            for _ in 0..n {
                cursors.push(c.varint()?);
            }
            let digest = c.u64()?;
            let expect = Checkpoint::compute_digest(step, &marking, &state, &cursors);
            if digest != expect {
                return Err(c
                    .error(format!("checkpoint digest mismatch at step {step}"))
                    .into());
            }
            checkpoints.push(Checkpoint {
                step,
                marking,
                state,
                cursors,
                digest,
            });
        }
        let n_rec = c.varint()?;
        let n_rec = c.check_count(n_rec, 5)?;
        let mut rec = Self {
            meta,
            first_step,
            checkpoints,
            rows: Vec::with_capacity(n_rec),
            ..Self::default()
        };
        for _ in 0..n_rec {
            let n = c.count()?;
            let mut prev: i64 = 0;
            for _ in 0..n {
                let cur = prev + unzigzag(c.varint()?);
                if cur < 0 || cur > i64::from(u32::MAX) {
                    return Err(c.error(format!("fired-delta out of range: {cur}")).into());
                }
                rec.fired.push(TransId::new(cur as u32));
                prev = cur;
            }
            let n = c.count()?;
            for _ in 0..n {
                let p = PortId::new(c.varint_u32("port id")?);
                rec.latched.push((p, c.value()?));
            }
            let n = c.count()?;
            for _ in 0..n {
                rec.advanced.push(VertexId::new(c.varint_u32("vertex id")?));
            }
            let n = c.count()?;
            for _ in 0..n {
                let a = ArcId::new(c.varint_u32("arc id")?);
                let v = c.value()?;
                rec.events
                    .push((a, v, PlaceId::new(c.varint_u32("place id")?)));
            }
            rec.rows.push(RowEnds {
                fired_end: rec.fired.len(),
                latched_end: rec.latched.len(),
                advanced_end: rec.advanced.len(),
                events_end: rec.events.len(),
                flags: c.u8()?,
            });
        }
        c.finish("recording")?;
        Ok(rec)
    }
}

/// Write one fault as six fields: site tag (`0` port, `1` place), raw
/// site id, kind tag (`0` stuck-at-0, `1` stuck-at-1, `2` bit-flip, `3`
/// token loss, `4` token dup), bit index (`0` unless a bit flip), window
/// tag (`0` transient, `1` permanent) and the window's step.
fn put_fault(out: &mut Vec<u8>, f: &Fault) {
    let (site_tag, site) = match f.site {
        FaultSite::Port(p) => (0, p.0),
        FaultSite::Place(s) => (1, s.0),
    };
    let (kind_tag, bit) = match f.kind {
        FaultKind::StuckAt0 => (0, 0),
        FaultKind::StuckAt1 => (1, 0),
        FaultKind::BitFlip(b) => (2, b),
        FaultKind::TokenLoss => (3, 0),
        FaultKind::TokenDup => (4, 0),
    };
    let (window_tag, at) = match f.window {
        FaultWindow::Transient(s) => (0, s),
        FaultWindow::Permanent(s) => (1, s),
    };
    out.push(site_tag);
    put_varint(out, u64::from(site));
    out.push(kind_tag);
    put_varint(out, u64::from(bit));
    out.push(window_tag);
    put_varint(out, at);
}

/// Read one fault written by [`put_fault`]. An unknown tag, or a bit
/// index on a kind that has none, is corrupt at the tag's offset.
fn read_fault(c: &mut Reader<'_>) -> Result<Fault, RecError> {
    let corrupt = |offset, detail: String| RecError::Corrupt { offset, detail };
    let at = c.pos();
    let site = match c.u8()? {
        0 => FaultSite::Port(PortId::new(c.varint_u32("fault site")?)),
        1 => FaultSite::Place(PlaceId::new(c.varint_u32("fault site")?)),
        tag => return Err(corrupt(at, format!("unknown fault site tag {tag}"))),
    };
    let at = c.pos();
    let (tag, bit) = (c.u8()?, c.varint_u32("fault bit")?);
    let kind = match (tag, bit) {
        (0, 0) => FaultKind::StuckAt0,
        (1, 0) => FaultKind::StuckAt1,
        (2, b) => FaultKind::BitFlip(b),
        (3, 0) => FaultKind::TokenLoss,
        (4, 0) => FaultKind::TokenDup,
        (0..=4, b) => return Err(corrupt(at, format!("fault kind {tag} carries bit {b}"))),
        _ => return Err(corrupt(at, format!("unknown fault kind tag {tag}"))),
    };
    let at = c.pos();
    let window = match c.u8()? {
        0 => FaultWindow::Transient(c.varint()?),
        1 => FaultWindow::Permanent(c.varint()?),
        tag => return Err(corrupt(at, format!("unknown fault window tag {tag}"))),
    };
    Ok(Fault { site, kind, window })
}

/// Magic + format version. Bump the final byte on breaking changes.
const MAGIC: &[u8] = b"ETPNREC\x01";

/// Failures of the recording layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecError {
    /// The byte stream does not start with the recording magic/version.
    BadMagic,
    /// Structurally invalid bytes at `offset`.
    Corrupt {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        detail: String,
    },
    /// A recording was compared with a recording, or read against a
    /// design, of a *different design*.
    DesignMismatch {
        /// The expected design fingerprint (the left recording's, or the
        /// design's).
        left: u64,
        /// The fingerprint the (right) recording carries.
        right: u64,
    },
    /// A journaled row names an id the design lacks.
    UnknownId {
        /// The step of the row.
        step: u64,
        /// The id, as the model prints it (`t9`, `s9`, …).
        id: String,
    },
    /// A checkpoint's vector is not as long as the design needs.
    CheckpointMisfit {
        /// The checkpoint's step.
        step: u64,
        /// Which vector, its length and the design's.
        detail: String,
    },
    /// No checkpoint at or before the requested step is retained (ring
    /// eviction, or the step precedes the recording).
    NoCheckpoint {
        /// The requested step.
        target: u64,
    },
    /// The requested step lies beyond the journal's end.
    BeyondEnd {
        /// The requested step.
        target: u64,
        /// One past the last journaled step.
        end: u64,
    },
}

impl std::fmt::Display for RecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecError::BadMagic => write!(f, "not an ETPN recording (bad magic or version)"),
            RecError::Corrupt { offset, detail } => {
                write!(f, "corrupt recording at byte {offset}: {detail}")
            }
            RecError::DesignMismatch { left, right } => {
                write!(f, "recording is of design {right:#018x}, not {left:#018x}")
            }
            RecError::UnknownId { step, id } => {
                write!(
                    f,
                    "the record of step {step} names {id}, which the design lacks"
                )
            }
            RecError::CheckpointMisfit { step, detail } => {
                write!(f, "the checkpoint at step {step} does not fit: {detail}")
            }
            RecError::NoCheckpoint { target } => {
                write!(f, "no retained checkpoint at or before step {target}")
            }
            RecError::BeyondEnd { target, end } => {
                write!(f, "target step {target} is beyond the journal end ({end})")
            }
        }
    }
}

impl std::error::Error for RecError {}

impl From<DecodeError> for RecError {
    fn from(e: DecodeError) -> Self {
        RecError::Corrupt {
            offset: e.offset,
            detail: e.detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        let mut rec = Recording {
            meta: RecMeta {
                design_fp: 0xDEAD_BEEF,
                env_fp: Some(7),
                policy_tag: 1,
                policy_seed: 42,
                every: 16,
                ring: Some(64),
                streams: vec![
                    ("a".to_string(), vec![Value::Def(-5), Value::Undef]),
                    ("b".to_string(), vec![Value::Def(i64::MAX)]),
                ],
                repeat_last: true,
                faults: vec![
                    Fault {
                        site: FaultSite::Port(PortId::new(3)),
                        kind: FaultKind::BitFlip(17),
                        window: FaultWindow::Transient(5),
                    },
                    Fault {
                        site: FaultSite::Place(PlaceId::new(1)),
                        kind: FaultKind::TokenDup,
                        window: FaultWindow::Permanent(2),
                    },
                    Fault {
                        site: FaultSite::Port(PortId::new(0)),
                        kind: FaultKind::StuckAt0,
                        window: FaultWindow::Permanent(0),
                    },
                ],
            },
            first_step: 3,
            checkpoints: vec![Checkpoint::new(
                3,
                vec![1, 0, 1],
                vec![Value::Undef, Value::Def(12)],
                vec![0, 2],
            )],
            ..Recording::default()
        };
        rec.push_record(&StepRecord {
            fired: vec![TransId::new(5), TransId::new(2), TransId::new(9)],
            latched: vec![(PortId::new(1), Value::Def(-100))],
            advanced: vec![VertexId::new(0)],
            events: vec![(ArcId::new(4), Value::Undef, PlaceId::new(2))],
            flags: FLAG_DATA_FAULT,
        });
        rec.push_record(&StepRecord::default());
        rec
    }

    #[test]
    fn roundtrip_is_identity() {
        let rec = sample();
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn corrupt_inputs_report_offset_not_panic() {
        let rec = sample();
        let bytes = rec.to_bytes();
        assert_eq!(Recording::from_bytes(b"bogus!!!"), Err(RecError::BadMagic));
        // Truncations at every prefix either fail cleanly or (for the
        // full length) succeed — never panic.
        for n in 0..bytes.len() {
            match Recording::from_bytes(&bytes[..n]) {
                Err(_) => {}
                Ok(r) => panic!("truncated prefix of {n} bytes decoded: {r:?}"),
            }
        }
        // A flipped state byte breaks the checkpoint digest.
        let mut bad = bytes.clone();
        let off = bad.len() - 40;
        bad[off] ^= 0xFF;
        assert!(Recording::from_bytes(&bad).is_err());
    }

    /// The offset of the `k`-th fault's field `field` (0 = site tag, 2 =
    /// kind tag, 4 = window tag) in `sample()`'s encoding: every field of
    /// its faults is one byte long.
    fn fault_field_offset(bytes: &[u8], k: usize, field: usize) -> usize {
        let faults = sample().meta.faults;
        let mut tail = Vec::new();
        put_varint(&mut tail, faults.len() as u64);
        for f in &faults {
            put_fault(&mut tail, f);
        }
        let start = bytes
            .windows(tail.len())
            .position(|w| w == tail.as_slice())
            .expect("fault list is in the encoding");
        start + 1 + 6 * k + field
    }

    #[test]
    fn an_unknown_fault_tag_is_refused_at_its_offset() {
        let bytes = sample().to_bytes();
        for (k, field, what) in [
            (0, 0, "unknown fault site tag 9"),
            (1, 2, "unknown fault kind tag 9"),
            (2, 4, "unknown fault window tag 9"),
        ] {
            let at = fault_field_offset(&bytes, k, field);
            let mut bad = bytes.clone();
            bad[at] = 9;
            let want = RecError::Corrupt {
                offset: at,
                detail: what.to_string(),
            };
            assert_eq!(Recording::from_bytes(&bad), Err(want));
        }
        // A bit index on a kind without one is not read past either.
        let at = fault_field_offset(&bytes, 2, 2);
        let mut bad = bytes.clone();
        bad[at + 1] = 4;
        let detail = "fault kind 0 carries bit 4".to_string();
        assert_eq!(
            Recording::from_bytes(&bad),
            Err(RecError::Corrupt { offset: at, detail })
        );
    }

    #[test]
    fn record_and_checkpoint_lookup() {
        let rec = sample();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.end_step(), 5);
        assert!(rec.record(2).is_none(), "before the window");
        assert!(rec.record(3).is_some());
        assert!(rec.record(5).is_none(), "past the window");
        assert_eq!(rec.checkpoint_at_or_before(2), None);
        assert_eq!(rec.checkpoint_at_or_before(9).unwrap().step, 3);
    }
}
