//! The live [`Recorder`] the simulation engine drives.
//!
//! The engine calls, per step:
//!
//! 1. [`Recorder::wants_checkpoint`] / [`Recorder::checkpoint`] — before
//!    anything else mutates the configuration;
//! 2. [`Recorder::push`] with the step's [`StepRecord`] once the step
//!    committed. The engine fills one reused row per step, so the
//!    recorder sees each step exactly once, as a whole.
//!
//! The recorder appends each row to the [`Recording`] it will return, so
//! finishing is a move, not a copy. In ring mode the live window holds
//! between `capacity` and `2 × capacity` rows: when it reaches
//! `2 × capacity` the oldest `capacity` rows, and the checkpoints before
//! the new window, go in one front trim. Each trim moves the retained
//! rows once, so a step costs a few column appends plus amortised O(1)
//! trimming, and no allocation once the columns reach their working
//! size. [`Recorder::into_recording`] trims to the last `capacity` rows.

use etpn_core::Value;
use etpn_obs as obs;

use crate::journal::{Checkpoint, RecMeta, RecordConfig, RecordMode, Recording, StepRecord};

/// Incremental journal builder fed by the simulation engine.
#[derive(Debug)]
pub struct Recorder {
    cfg: RecordConfig,
    rec: Recording,
    /// Next step on the checkpoint cadence, lazily anchored on the first
    /// [`Recorder::wants_checkpoint`] query so recording can start at any
    /// step while checkpoints stay on absolute multiples of `every`.
    next_checkpoint: Option<u64>,
    steps: u64,
    evictions: u64,
}

impl Recorder {
    /// Create a recorder with the given configuration and run metadata.
    ///
    /// The `every`/`ring` fields of the metadata are overwritten from the
    /// configuration so the serialised recording always reflects how it
    /// was actually captured.
    pub fn new(cfg: RecordConfig, mut meta: RecMeta) -> Self {
        meta.every = cfg.every;
        meta.ring = match cfg.mode {
            RecordMode::Full => None,
            RecordMode::Ring(cap) => Some(cap),
        };
        Self {
            cfg,
            rec: Recording {
                meta,
                ..Recording::default()
            },
            next_checkpoint: None,
            steps: 0,
            evictions: 0,
        }
    }

    /// True when `step` is on the checkpoint cadence and not yet
    /// checkpointed. O(1): the engine asks this once per step, so the
    /// cadence is tracked as a cached next-step rather than a modulo.
    #[inline]
    pub fn wants_checkpoint(&mut self, step: u64) -> bool {
        let next = *self
            .next_checkpoint
            .get_or_insert_with(|| step.next_multiple_of(self.cfg.every));
        step == next
    }

    /// Snapshot the configuration *before* step `step` executes.
    pub fn checkpoint(&mut self, step: u64, marking: &[u32], state: &[Value], cursors: &[u64]) {
        debug_assert!(
            self.rec.checkpoints.last().is_none_or(|c| c.step < step),
            "checkpoints must be strictly increasing"
        );
        self.rec.checkpoints.push(Checkpoint::new(
            step,
            marking.to_vec(),
            state.to_vec(),
            cursors.to_vec(),
        ));
        self.next_checkpoint = Some(step + self.cfg.every);
    }

    /// Journal the committed step `step`. The first row anchors
    /// [`Recording::first_step`]; later rows must follow densely. In ring
    /// mode a full window sheds its oldest `capacity` rows.
    #[inline]
    pub fn push(&mut self, step: u64, row: &StepRecord) {
        if self.rec.is_empty() {
            self.rec.first_step = step;
        }
        debug_assert_eq!(step, self.rec.end_step(), "steps must be journaled densely");
        self.rec.push_record(row);
        self.steps += 1;
        if let RecordMode::Ring(cap) = self.cfg.mode {
            if self.rec.len() >= cap.saturating_mul(2) {
                self.shed(self.rec.len() - cap);
            }
        }
    }

    fn shed(&mut self, n: usize) {
        self.rec.drop_front(n);
        self.evictions += n as u64;
    }

    /// Finish recording and produce the immutable [`Recording`]: a ring
    /// keeps its last `capacity` rows and the checkpoints among them.
    ///
    /// Emits the recorder's own observability: counters `rec.steps`,
    /// `rec.evictions`, `rec.checkpoints` and gauge `rec.ring.occupancy`
    /// (retained records at finish).
    pub fn into_recording(mut self) -> Recording {
        if let RecordMode::Ring(cap) = self.cfg.mode {
            self.shed(self.rec.len().saturating_sub(cap));
        }
        obs::global().counter("rec.steps").add(self.steps);
        obs::global().counter("rec.evictions").add(self.evictions);
        obs::global()
            .counter("rec.checkpoints")
            .add(self.rec.checkpoints.len() as u64);
        obs::global()
            .gauge("rec.ring.occupancy")
            .set(self.rec.len() as i64);
        self.rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Recording;
    use etpn_core::TransId;

    fn meta() -> RecMeta {
        RecMeta {
            design_fp: 1,
            ..RecMeta::default()
        }
    }

    fn drive(rec: &mut Recorder, step: u64) {
        if rec.wants_checkpoint(step) {
            rec.checkpoint(step, &[1], &[Value::Def(step as i64)], &[step]);
        }
        let row = StepRecord {
            fired: vec![TransId::new((step % 3) as u32)],
            ..StepRecord::default()
        };
        rec.push(step, &row);
    }

    #[test]
    fn full_mode_retains_everything() {
        let mut rec = Recorder::new(RecordConfig::full(4), meta());
        for s in 0..10 {
            drive(&mut rec, s);
        }
        let r = rec.into_recording();
        assert_eq!(r.first_step, 0);
        assert_eq!(r.len(), 10);
        assert_eq!(r.meta.every, 4);
        assert_eq!(r.meta.ring, None);
        assert_eq!(
            r.checkpoints.iter().map(|c| c.step).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        assert_eq!(r.record(7).unwrap().fired, [TransId::new(1)]);
    }

    #[test]
    fn ring_mode_evicts_and_drops_stale_checkpoints() {
        let mut rec = Recorder::new(RecordConfig::ring(4, 2), meta());
        for s in 0..10 {
            drive(&mut rec, s);
        }
        let r = rec.into_recording();
        // Ring of 4 after 10 steps retains steps 6..10.
        assert_eq!(r.first_step, 6);
        assert_eq!(r.len(), 4);
        assert_eq!(r.end_step(), 10);
        assert!(r.record(5).is_none());
        assert!(r.record(6).is_some());
        // Checkpoints at 0/2/4 fell out; 6 and 8 survive.
        assert_eq!(
            r.checkpoints.iter().map(|c| c.step).collect::<Vec<_>>(),
            vec![6, 8]
        );
        assert_eq!(r.checkpoint_at_or_before(9).unwrap().step, 8);
    }

    #[test]
    fn ring_roundtrips_through_bytes() {
        let mut rec = Recorder::new(RecordConfig::ring(3, 1), meta());
        for s in 0..7 {
            drive(&mut rec, s);
        }
        let r = rec.into_recording();
        assert_eq!(r.meta.ring, Some(3));
        let back = Recording::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(r, back);
    }
}
