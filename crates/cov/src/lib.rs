//! # etpn-cov — design-level functional coverage for ETPN
//!
//! The paper's execution semantics (Def. 3.1) is defined over which places
//! mark, which transitions fire, which arcs the mapping `C : S → 2^A`
//! actually opens, and which guard values decide firings. [`CovDb`]
//! records exactly those observations during simulation, in a form that is
//!
//! * **compact** — bitsets and flat counter vectors, raw-id indexed, no
//!   per-step allocation beyond one word-parallel OR;
//! * **mergeable** — [`CovDb::merge`] is associative and commutative
//!   (counter sums + bitset unions), so a fleet can merge per-job DBs at
//!   join in any order and always land on the bit-identical aggregate;
//! * **keyed** — every DB carries the structural fingerprint of its
//!   design ([`etpn_core::Etpn::fingerprint`]); merging DBs of different
//!   designs, or a DB whose sizes do not fit its design, is an error,
//!   not silent corruption.
//!
//! Five coverage dimensions are tracked:
//!
//! | dimension   | covered when                                             |
//! |-------------|----------------------------------------------------------|
//! | place       | the place ever held a token                              |
//! | transition  | the transition ever fired                                |
//! | arc         | the arc was ever open (conducting) during a step         |
//! | guard       | a guarded transition was observed both taken *and* held  |
//! | port toggle | an output port was observed both `0` and non-`0` defined |
//!
//! [`report::report`] turns a DB into a [`report::CovReport`] with **hole
//! analysis**: items `etpn-lint`'s dead-place/dead-transition fixpoint
//! proves statically dead are excluded from the denominator, so a
//! remaining hole is a genuine testing gap, not dead code.
//!
//! [`CovDb::signature`] hashes the covered *sets* (not the counts): a
//! fleet in saturation mode keeps drawing seeds until the signature is
//! stable for K consecutive batches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

pub use report::{lcov, report, CovReport, Dimension, StaticDead};

use etpn_core::bitset::BitSet;
use etpn_core::bytes::{put_u32, put_u64, DecodeError, Reader};
use etpn_core::{Etpn, Marking, StableHasher, Value};
use etpn_obs as obs;

/// A mergeable functional-coverage database for one design.
///
/// All index spaces are *raw-id* (arena `capacity_bound`) indexed, so dead
/// arena slots occupy bits that stay zero forever — they are excluded from
/// denominators at report time, never at collection time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CovDb {
    /// Structural fingerprint of the design this DB observes.
    pub fingerprint: u64,
    /// Runs merged into this DB.
    pub runs: u64,
    /// Control steps accumulated over all merged runs.
    pub steps: u64,
    /// Places that ever held a token.
    pub place_marked: BitSet,
    /// Activation (exit) count per place, raw-id indexed.
    pub place_exits: Vec<u64>,
    /// Firing count per transition, raw-id indexed.
    pub trans_fired: Vec<u64>,
    /// Arcs ever observed open (conducting) during a step.
    pub arc_open: BitSet,
    /// Guarded transitions observed with their guard disjunction true.
    pub guard_taken: BitSet,
    /// Guarded transitions observed token-enabled with all guards false.
    pub guard_untaken: BitSet,
    /// Output ports observed carrying a defined non-zero value.
    pub port_true: BitSet,
    /// Output ports observed carrying the defined value zero.
    pub port_false: BitSet,
}

/// Why [`CovDb::merge`] refused a DB: the two observe different designs
/// (`ours != theirs`), or the offered DB names our design but its index
/// spaces do not fit it (`ours == theirs`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MergeMismatch {
    /// Fingerprint of the receiving DB.
    pub ours: u64,
    /// Fingerprint of the DB that was offered.
    pub theirs: u64,
}

impl std::fmt::Display for MergeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ours == self.theirs {
            write!(
                f,
                "coverage of {:#018x} does not fit the design: vector lengths or set capacities differ",
                self.ours
            )
        } else {
            write!(
                f,
                "coverage merge across designs: {:#018x} vs {:#018x}",
                self.ours, self.theirs
            )
        }
    }
}

impl std::error::Error for MergeMismatch {}

impl CovDb {
    /// An empty DB sized for `g` (raw-id capacities, dead slots included).
    pub fn new(g: &Etpn) -> Self {
        Self::sized(g, g.fingerprint())
    }

    /// [`Self::new`] for a design whose fingerprint the caller already
    /// holds (a compilation's key, a registry's), so `g` is not hashed
    /// again: one hash is a full pass over the design.
    pub fn for_fingerprint(g: &Etpn, fingerprint: u64) -> Self {
        debug_assert_eq!(fingerprint, g.fingerprint(), "not the design's fingerprint");
        Self::sized(g, fingerprint)
    }

    fn sized(g: &Etpn, fingerprint: u64) -> Self {
        Self {
            fingerprint,
            runs: 0,
            steps: 0,
            place_marked: BitSet::new(g.ctl.places().capacity_bound()),
            place_exits: vec![0; g.ctl.places().capacity_bound()],
            trans_fired: vec![0; g.ctl.transitions().capacity_bound()],
            arc_open: BitSet::new(g.dp.arcs().capacity_bound()),
            guard_taken: BitSet::new(g.ctl.transitions().capacity_bound()),
            guard_untaken: BitSet::new(g.ctl.transitions().capacity_bound()),
            port_true: BitSet::new(g.dp.ports().capacity_bound()),
            port_false: BitSet::new(g.dp.ports().capacity_bound()),
        }
    }

    /// Record the open-arc set of one step — a single word-parallel OR.
    /// The source set may be sized `arcs().len()`; trailing capacity here
    /// simply stays zero.
    #[inline]
    pub fn record_open_arcs(&mut self, open: &BitSet) {
        self.arc_open.union_words(open.words());
    }

    /// Record one arc observed open, by raw id — the event-driven
    /// counterpart of [`CovDb::record_open_arcs`] for a step that only
    /// knows which arcs opened since the previous one.
    #[inline]
    pub fn record_arc(&mut self, arc_idx: usize) {
        self.arc_open.insert(arc_idx);
    }

    /// Record one observed value of the output port with raw id
    /// `port_idx`. Only defined values toggle; `⊥` is no observation.
    #[inline]
    pub fn record_toggle(&mut self, port_idx: usize, v: Value) {
        match v {
            Value::Def(0) => {
                self.port_false.insert(port_idx);
            }
            Value::Def(_) => {
                self.port_true.insert(port_idx);
            }
            Value::Undef => {}
        }
    }

    /// Record one guard outcome for the token-enabled guarded transition
    /// with raw id `trans_idx`: `true` when its guard disjunction held
    /// (the transition could fire), `false` when it held the transition
    /// back.
    #[inline]
    pub fn record_guard(&mut self, trans_idx: usize, taken: bool) {
        if taken {
            self.guard_taken.insert(trans_idx);
        } else {
            self.guard_untaken.insert(trans_idx);
        }
    }

    /// Fold one finished run into the DB: per-run counters are summed and
    /// the ever-marked place set is derived without per-step marking
    /// unions — a place was marked iff it is initial, in the postset of a
    /// fired transition, or (covering token-duplication faults) marked at
    /// the end.
    pub fn absorb_run(
        &mut self,
        g: &Etpn,
        fire_counts: &[u64],
        exit_counts: &[u64],
        steps: u64,
        final_marking: &Marking,
    ) {
        self.runs += 1;
        self.steps += steps;
        for (acc, &n) in self.place_exits.iter_mut().zip(exit_counts) {
            *acc += n;
        }
        for (acc, &n) in self.trans_fired.iter_mut().zip(fire_counts) {
            *acc += n;
        }
        for s in g.ctl.initial_places() {
            self.place_marked.insert(s.idx());
        }
        for (t, tr) in g.ctl.transitions().iter() {
            if fire_counts.get(t.idx()).copied().unwrap_or(0) > 0 {
                for &s in &tr.post {
                    self.place_marked.insert(s.idx());
                }
            }
        }
        for s in final_marking.marked_places() {
            self.place_marked.insert(s.idx());
        }
    }

    /// `self ∪= other`: counters sum (saturating), covered sets union.
    /// Associative and commutative, so any merge tree over the same
    /// per-job DBs produces the bit-identical aggregate. Fails, leaving
    /// `self` untouched, on a design mismatch or on a DB whose vector
    /// lengths or set capacities differ from ours (a decoded image that
    /// does not fit the design it names).
    pub fn merge(&mut self, other: &CovDb) -> Result<(), MergeMismatch> {
        if self.fingerprint != other.fingerprint || !self.same_shape(other) {
            return Err(MergeMismatch {
                ours: self.fingerprint,
                theirs: other.fingerprint,
            });
        }
        self.runs = self.runs.saturating_add(other.runs);
        self.steps = self.steps.saturating_add(other.steps);
        for (a, &b) in self.place_exits.iter_mut().zip(&other.place_exits) {
            *a = a.saturating_add(b);
        }
        for (a, &b) in self.trans_fired.iter_mut().zip(&other.trans_fired) {
            *a = a.saturating_add(b);
        }
        self.place_marked.union_with(&other.place_marked);
        self.arc_open.union_with(&other.arc_open);
        self.guard_taken.union_with(&other.guard_taken);
        self.guard_untaken.union_with(&other.guard_untaken);
        self.port_true.union_with(&other.port_true);
        self.port_false.union_with(&other.port_false);
        Ok(())
    }

    /// The six covered sets, in image order.
    fn sets(&self) -> [&BitSet; 6] {
        [
            &self.place_marked,
            &self.arc_open,
            &self.guard_taken,
            &self.guard_untaken,
            &self.port_true,
            &self.port_false,
        ]
    }

    /// True when both DBs size every index space alike: counter-vector
    /// lengths and set capacities.
    fn same_shape(&self, other: &CovDb) -> bool {
        self.place_exits.len() == other.place_exits.len()
            && self.trans_fired.len() == other.trans_fired.len()
            && self
                .sets()
                .iter()
                .zip(other.sets())
                .all(|(a, b)| a.capacity() == b.capacity())
    }

    /// A stable hash of the covered *sets* only — counts and run totals
    /// are deliberately excluded, so two DBs covering the same behaviour
    /// with different run counts sign identically. Saturation detection
    /// compares consecutive signatures.
    pub fn signature(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.fingerprint);
        for set in self.sets() {
            h.write_u64(set.stable_hash64());
        }
        // Transition coverage is the fired-at-all pattern, not the counts.
        for (i, &n) in self.trans_fired.iter().enumerate() {
            if n > 0 {
                h.write_usize(i);
            }
        }
        h.finish()
    }

    /// Covered-item counts `(places, transitions, arcs, guards_both_ways,
    /// toggled_ports)` — raw set sizes, with no denominator semantics
    /// (dead arena slots can never be set; report-time exclusion handles
    /// statically-dead items).
    pub fn covered_counts(&self) -> (usize, usize, usize, usize, usize) {
        let guards_both = self
            .guard_taken
            .iter()
            .filter(|&i| self.guard_untaken.contains(i))
            .count();
        let toggled = self
            .port_true
            .iter()
            .filter(|&i| self.port_false.contains(i))
            .count();
        (
            self.place_marked.count(),
            self.trans_fired.iter().filter(|&&n| n > 0).count(),
            self.arc_open.count(),
            guards_both,
            toggled,
        )
    }

    /// Serialize the DB into a flat, self-describing byte image suitable
    /// for journaling: fixed-width little-endian fields, each vector and
    /// bitset length-prefixed. [`CovDb::from_bytes`] round-trips it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.runs);
        put_u64(&mut out, self.steps);
        for counts in [&self.place_exits, &self.trans_fired] {
            put_u32(&mut out, counts.len() as u32);
            for &n in counts {
                put_u64(&mut out, n);
            }
        }
        for set in self.sets() {
            put_u32(&mut out, set.capacity() as u32);
            for &w in set.words() {
                put_u64(&mut out, w);
            }
        }
        out
    }

    /// Parse a [`CovDb::to_bytes`] image. Every read is bounds-checked:
    /// truncated or corrupt input is an `Err` at its byte offset, never a
    /// panic, and never a partially-initialized DB.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        fn counts(r: &mut Reader) -> Result<Vec<u64>, DecodeError> {
            let n = r.u32()?;
            let n = r.check_count(n.into(), 8)?;
            (0..n).map(|_| r.u64()).collect()
        }
        fn set(r: &mut Reader) -> Result<BitSet, DecodeError> {
            let cap = r.u32()? as usize;
            let words = r.check_count(cap.div_ceil(64) as u64, 8)?;
            let words = (0..words).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
            let mut s = BitSet::new(cap);
            s.union_words(&words);
            Ok(s)
        }
        let mut r = Reader::new(bytes);
        let db = CovDb {
            fingerprint: r.u64()?,
            runs: r.u64()?,
            steps: r.u64()?,
            place_exits: counts(&mut r)?,
            trans_fired: counts(&mut r)?,
            place_marked: set(&mut r)?,
            arc_open: set(&mut r)?,
            guard_taken: set(&mut r)?,
            guard_untaken: set(&mut r)?,
            port_true: set(&mut r)?,
            port_false: set(&mut r)?,
        };
        r.finish("coverage image")?;
        Ok(db)
    }

    /// Re-export the DB's headline numbers through the observability
    /// registry as gauges under `cov.*`, mirroring `FleetStats::export`.
    pub fn export(&self, reg: &obs::Registry) {
        let (places, transitions, arcs, guards, toggles) = self.covered_counts();
        reg.gauge("cov.runs").set(self.runs as i64);
        reg.gauge("cov.steps").set(self.steps as i64);
        reg.gauge("cov.places").set(places as i64);
        reg.gauge("cov.transitions").set(transitions as i64);
        reg.gauge("cov.arcs").set(arcs as i64);
        reg.gauge("cov.guards").set(guards as i64);
        reg.gauge("cov.toggles").set(toggles as i64);
        reg.gauge("cov.signature").set(self.signature() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{EtpnBuilder, Op};
    use proptest::prelude::*;

    /// A small guarded design with enough of every id space to exercise
    /// all five dimensions.
    fn fixture() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let zero = b.constant(0, "z");
        let ge = b.operator(Op::Ge, 2, "ge");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let c0 = b.connect(b.out_port(r, 0), b.in_port(ge, 0));
        let c1 = b.connect(b.out_port(zero, 0), b.in_port(ge, 1));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [load, c0, c1]);
        b.control(s1, [emit]);
        let t0 = b.seq(s0, s1, "t0");
        b.guard(t0, b.out_port(ge, 0));
        b.seq(s1, s_end, "t1");
        let fin = b.transition("fin");
        b.flow_st(s_end, fin);
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn merge_requires_matching_fingerprints() {
        let g = fixture();
        let mut b = EtpnBuilder::new();
        b.place("only");
        let other = b.finish().unwrap();
        let mut a = CovDb::new(&g);
        let err = a.merge(&CovDb::new(&other)).unwrap_err();
        assert_ne!(err.ours, err.theirs);
        assert!(err.to_string().contains("across designs"));
    }

    #[test]
    fn merge_refuses_misfit_shapes_and_saturates() {
        let g = fixture();
        let base = CovDb::new(&g);
        let mut wide = base.clone();
        wide.port_false = BitSet::new(base.port_false.capacity() + 1);
        let mut short = base.clone();
        short.trans_fired.pop();
        for misfit in [wide, short] {
            let mut a = base.clone();
            let err = a.merge(&misfit).unwrap_err();
            assert_eq!(err.ours, err.theirs);
            assert!(err.to_string().contains("does not fit"), "{err}");
            assert_eq!(a, base, "a refused merge changes nothing");
        }
        let mut a = base.clone();
        a.runs = u64::MAX;
        a.trans_fired[0] = u64::MAX - 1;
        let mut b = base.clone();
        b.runs = 2;
        b.trans_fired[0] = 5;
        a.merge(&b).unwrap();
        assert_eq!((a.runs, a.trans_fired[0]), (u64::MAX, u64::MAX));
    }

    #[test]
    fn toggles_need_both_polarities_and_ignore_undef() {
        let g = fixture();
        let mut db = CovDb::new(&g);
        db.record_toggle(0, Value::Undef);
        assert_eq!(db.covered_counts().4, 0);
        db.record_toggle(0, Value::Def(7));
        assert_eq!(db.covered_counts().4, 0, "only one polarity seen");
        db.record_toggle(0, Value::Def(0));
        assert_eq!(db.covered_counts().4, 1);
    }

    #[test]
    fn guards_need_taken_and_untaken() {
        let g = fixture();
        let mut db = CovDb::new(&g);
        db.record_guard(0, true);
        assert_eq!(db.covered_counts().3, 0);
        db.record_guard(0, false);
        assert_eq!(db.covered_counts().3, 1);
    }

    #[test]
    fn signature_ignores_counts_but_not_sets() {
        let g = fixture();
        let mut a = CovDb::new(&g);
        a.trans_fired[0] = 1;
        let mut b = a.clone();
        b.trans_fired[0] = 99;
        b.runs = 5;
        b.steps = 500;
        assert_eq!(a.signature(), b.signature(), "counts don't change the set");
        b.place_marked.insert(1);
        assert_ne!(a.signature(), b.signature(), "new coverage changes it");
    }

    /// One raw draw: `(dimension, index, count, flag)`. Indices are taken
    /// modulo the relevant capacity inside [`db_from`], so the strategy
    /// stays independent of the fixture's exact sizes.
    type Draw = (usize, usize, u64, bool);

    /// Build a DB from raw draw data through the public recording API.
    fn db_from(g: &Etpn, draws: &[Draw], steps: u64) -> CovDb {
        let pcap = g.ctl.places().capacity_bound();
        let tcap = g.ctl.transitions().capacity_bound();
        let acap = g.dp.arcs().capacity_bound();
        let ocap = g.dp.ports().capacity_bound();
        let mut db = CovDb::new(g);
        db.runs = 1;
        db.steps = steps;
        let mut open = BitSet::new(acap);
        for &(dim, i, n, flag) in draws {
            match dim % 5 {
                0 => {
                    let i = i % pcap;
                    db.place_marked.insert(i);
                    db.place_exits[i] += n;
                }
                1 => db.trans_fired[i % tcap] += n,
                2 => {
                    open.insert(i % acap);
                }
                3 => db.record_guard(i % tcap, flag),
                _ => db.record_toggle(i % ocap, Value::Def(i64::from(flag))),
            }
        }
        db.record_open_arcs(&open);
        db
    }

    #[test]
    fn bytes_round_trip_preserves_everything() {
        let g = fixture();
        let mut db = CovDb::new(&g);
        db.runs = 3;
        db.steps = 41;
        db.place_marked.insert(1);
        db.place_exits[1] = 7;
        db.trans_fired[0] = 2;
        db.record_guard(0, true);
        db.record_guard(0, false);
        db.record_toggle(0, Value::Def(0));
        db.record_toggle(0, Value::Def(9));
        let mut open = BitSet::new(g.dp.arcs().capacity_bound());
        open.insert(2);
        db.record_open_arcs(&open);
        let back = CovDb::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.signature(), db.signature());
    }

    #[test]
    fn truncated_bytes_error_at_every_cut() {
        let g = fixture();
        let mut db = CovDb::new(&g);
        db.runs = 1;
        db.trans_fired[0] = 5;
        let image = db.to_bytes();
        for cut in 0..image.len() {
            assert!(
                CovDb::from_bytes(&image[..cut]).is_err(),
                "prefix of {cut} bytes parsed as a whole DB"
            );
        }
        assert!(CovDb::from_bytes(&[]).is_err());
        let mut trailing = image.clone();
        trailing.push(0);
        assert!(CovDb::from_bytes(&trailing).is_err(), "trailing bytes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// to_bytes/from_bytes round-trips arbitrary DBs built through the
        /// public recording API.
        #[test]
        fn bytes_round_trip(
            da in prop::collection::vec((0usize..5, 0usize..64, 0u64..20, any::<bool>()), 0..24),
        ) {
            let g = fixture();
            let a = db_from(&g, &da, 13);
            let back = CovDb::from_bytes(&a.to_bytes()).unwrap();
            prop_assert_eq!(&back, &a);
        }

        /// merge is commutative: a ∪ b == b ∪ a.
        #[test]
        fn merge_commutes(
            da in prop::collection::vec((0usize..5, 0usize..64, 0u64..20, any::<bool>()), 0..24),
            db_draws in prop::collection::vec((0usize..5, 0usize..64, 0u64..20, any::<bool>()), 0..24),
        ) {
            let g = fixture();
            let a = db_from(&g, &da, 17);
            let b = db_from(&g, &db_draws, 5);
            let mut ab = a.clone();
            ab.merge(&b).unwrap();
            let mut ba = b.clone();
            ba.merge(&a).unwrap();
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(ab.signature(), ba.signature());
        }

        /// merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        #[test]
        fn merge_associates(
            da in prop::collection::vec((0usize..5, 0usize..64, 0u64..20, any::<bool>()), 0..24),
            db_draws in prop::collection::vec((0usize..5, 0usize..64, 0u64..20, any::<bool>()), 0..24),
            dc in prop::collection::vec((0usize..5, 0usize..64, 0u64..20, any::<bool>()), 0..24),
        ) {
            let g = fixture();
            let a = db_from(&g, &da, 1);
            let b = db_from(&g, &db_draws, 2);
            let c = db_from(&g, &dc, 3);
            let mut left = a.clone();
            left.merge(&b).unwrap();
            left.merge(&c).unwrap();
            let mut bc = b.clone();
            bc.merge(&c).unwrap();
            let mut right = a.clone();
            right.merge(&bc).unwrap();
            prop_assert_eq!(&left, &right);
        }

        /// The empty DB is a merge identity.
        #[test]
        fn merge_identity(
            da in prop::collection::vec((0usize..5, 0usize..64, 0u64..20, any::<bool>()), 0..24),
        ) {
            let g = fixture();
            let a = db_from(&g, &da, 9);
            let mut merged = CovDb::new(&g);
            merged.merge(&a).unwrap();
            prop_assert_eq!(&merged, &a);
        }
    }
}
