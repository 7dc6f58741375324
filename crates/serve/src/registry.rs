//! The design registry: compiled designs keyed by structural fingerprint,
//! each carrying its own circuit breaker and accumulated coverage.
//!
//! This is the paper's compile-once/simulate-many split hoisted to service
//! scope: `POST /v1/designs` pays compilation once, every later verb
//! addresses the design by fingerprint (or name) and reuses the compiled
//! artifacts and the per-design [`CovDb`] that keeps accumulating across
//! requests — and, via the coverage journal, across restarts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use etpn_cov::{CovDb, MergeMismatch};
use etpn_synth::CompiledDesign;

use crate::breaker::{BreakerConfig, CircuitBreaker};

/// One registered design with its robustness state.
#[derive(Debug)]
pub struct DesignEntry {
    /// The compiled design (net + name maps + register resets).
    pub design: CompiledDesign,
    /// `design.etpn.fingerprint()`, the registry key.
    pub fingerprint: u64,
    /// The source text it was compiled from.
    pub source: String,
    /// Per-design circuit breaker.
    pub breaker: CircuitBreaker,
    /// Coverage accumulated over every covered request (and recovered
    /// journal frames).
    pub cov: Mutex<CovDb>,
}

/// Why [`Registry::register`] refused a source.
#[derive(Debug)]
pub enum RegisterError {
    /// The source failed to compile.
    Compile(String),
    /// The source compiled to a *new* fingerprint whose declared name is
    /// already registered to a structurally different design. In a
    /// multi-tenant registry, silently re-pointing the name would let one
    /// tenant hijack another's name-based lookups, so the collision is
    /// refused; the existing design keeps the name, and the new one can
    /// re-register under a different name.
    NameTaken {
        /// The contended design name.
        name: String,
        /// The fingerprint the name currently resolves to.
        existing: u64,
    },
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::Compile(e) => write!(f, "compile error: {e}"),
            RegisterError::NameTaken { name, existing } => write!(
                f,
                "design name `{name}` is already registered to a structurally \
                 different design ({})",
                format_fingerprint(*existing)
            ),
        }
    }
}

/// Registry of compiled designs, addressable by fingerprint or name.
#[derive(Debug)]
pub struct Registry {
    breaker_cfg: BreakerConfig,
    designs: RwLock<HashMap<u64, Arc<DesignEntry>>>,
    by_name: RwLock<HashMap<String, u64>>,
    /// Coverage recovered from the journal for fingerprints not yet
    /// re-registered; attached (merged) at registration time.
    orphan_cov: Mutex<HashMap<u64, CovDb>>,
}

impl Registry {
    /// An empty registry whose entries get breakers tuned by `cfg`.
    pub fn new(breaker_cfg: BreakerConfig) -> Self {
        Self {
            breaker_cfg,
            designs: RwLock::new(HashMap::new()),
            by_name: RwLock::new(HashMap::new()),
            orphan_cov: Mutex::new(HashMap::new()),
        }
    }

    /// Compile and register `source`. Registration is idempotent: a source
    /// that compiles to an already-registered fingerprint returns the
    /// existing entry (breaker and coverage intact). A *different*
    /// structure declaring an already-used name is refused
    /// ([`RegisterError::NameTaken`]) rather than silently re-pointing
    /// name-based lookups. Returns the entry and whether it was newly
    /// created.
    pub fn register(&self, source: &str) -> Result<(Arc<DesignEntry>, bool), RegisterError> {
        let design = etpn_synth::compile_source(source)
            .map_err(|e| RegisterError::Compile(e.to_string()))?;
        let fingerprint = design.etpn.fingerprint();
        {
            let designs = self.designs.read().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = designs.get(&fingerprint) {
                return Ok((Arc::clone(entry), false));
            }
        }
        let entry = Arc::new(DesignEntry {
            fingerprint,
            source: source.to_string(),
            breaker: CircuitBreaker::new(self.breaker_cfg),
            cov: Mutex::new(CovDb::new(&design.etpn)),
            design,
        });
        let mut designs = self.designs.write().unwrap_or_else(|e| e.into_inner());
        // Double-checked: another thread may have registered concurrently.
        if let Some(existing) = designs.get(&fingerprint) {
            return Ok((Arc::clone(existing), false));
        }
        let mut by_name = self.by_name.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&taken_by) = by_name.get(&entry.design.name) {
            if taken_by != fingerprint {
                return Err(RegisterError::NameTaken {
                    name: entry.design.name.clone(),
                    existing: taken_by,
                });
            }
        }
        // Attach coverage recovered from a previous process life — only
        // now, after every refusal path, so a rejected registration can
        // never swallow parked journal frames. Parked coverage that does
        // not fit the compiled design is refused by the merge and dropped.
        if let Some(recovered) = self
            .orphan_cov
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&fingerprint)
        {
            let mut cov = entry.cov.lock().unwrap_or_else(|e| e.into_inner());
            let _ = cov.merge(&recovered);
        }
        designs.insert(fingerprint, Arc::clone(&entry));
        by_name.insert(entry.design.name.clone(), fingerprint);
        Ok((entry, true))
    }

    /// Resolve `key`: a `0x…` fingerprint, a bare hex fingerprint, or a
    /// design name.
    pub fn get(&self, key: &str) -> Option<Arc<DesignEntry>> {
        let designs = self.designs.read().unwrap_or_else(|e| e.into_inner());
        if let Some(fp) = parse_fingerprint(key) {
            if let Some(e) = designs.get(&fp) {
                return Some(Arc::clone(e));
            }
        }
        let by_name = self.by_name.read().unwrap_or_else(|e| e.into_inner());
        by_name.get(key).and_then(|fp| designs.get(fp)).cloned()
    }

    /// All entries, in unspecified order.
    pub fn entries(&self) -> Vec<Arc<DesignEntry>> {
        self.designs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered designs.
    pub fn len(&self) -> usize {
        self.designs.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absorb one recovered coverage frame. If the design is already
    /// registered the frame merges straight into its live DB; otherwise it
    /// parks under the fingerprint until registration. Fails, absorbing
    /// nothing, when the frame does not fit the DB it would merge into.
    pub fn absorb_recovered_cov(&self, db: CovDb) -> Result<(), MergeMismatch> {
        let fp = db.fingerprint;
        if let Some(entry) = self
            .designs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&fp)
        {
            return entry
                .cov
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .merge(&db);
        }
        let mut orphans = self.orphan_cov.lock().unwrap_or_else(|e| e.into_inner());
        match orphans.get_mut(&fp) {
            Some(acc) => acc.merge(&db),
            None => {
                orphans.insert(fp, db);
                Ok(())
            }
        }
    }

    /// Coverage frames parked for not-yet-registered designs.
    pub fn orphan_cov_count(&self) -> usize {
        self.orphan_cov
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }
}

/// Render a fingerprint the way the API does: `0x` + 16 hex digits.
pub fn format_fingerprint(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// Parse a `0x…`-or-bare hex fingerprint.
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    let hex = s.strip_prefix("0x").unwrap_or(s);
    if hex.is_empty() || hex.len() > 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "design adder { in a, b; out s; s = a + b; }";

    #[test]
    fn register_is_idempotent_by_fingerprint() {
        let r = Registry::new(BreakerConfig::default());
        let (e1, fresh1) = r.register(SRC).unwrap();
        let (e2, fresh2) = r.register(SRC).unwrap();
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(e1.fingerprint, e2.fingerprint);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn lookup_by_fingerprint_hex_and_name() {
        let r = Registry::new(BreakerConfig::default());
        let (e, _) = r.register(SRC).unwrap();
        let hex = format_fingerprint(e.fingerprint);
        assert!(r.get(&hex).is_some());
        assert!(r.get(hex.trim_start_matches("0x")).is_some());
        assert!(r.get(&e.design.name).is_some());
        assert!(r.get("0xdeadbeefdeadbeef").is_none());
        assert!(r.get("no-such-design").is_none());
    }

    #[test]
    fn name_collision_with_a_different_structure_is_refused() {
        let r = Registry::new(BreakerConfig::default());
        let (first, _) = r.register(SRC).unwrap();
        // Same declared name, different structure → different fingerprint:
        // last-writer-wins would hijack name-based lookups.
        let err = r
            .register("design adder { in a, b; out s; s = a - b; }")
            .unwrap_err();
        match err {
            RegisterError::NameTaken { name, existing } => {
                assert_eq!(name, first.design.name);
                assert_eq!(existing, first.fingerprint);
            }
            other => panic!("expected NameTaken, got {other:?}"),
        }
        // The original mapping is intact.
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.get(&first.design.name).unwrap().fingerprint,
            first.fingerprint
        );
    }

    #[test]
    fn compile_errors_are_reported_not_registered() {
        let r = Registry::new(BreakerConfig::default());
        assert!(r.register("design broken { out y; y = ").is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn orphan_coverage_attaches_at_registration() {
        let staging = Registry::new(BreakerConfig::default());
        let (entry, _) = staging.register(SRC).unwrap();
        let mut db = CovDb::new(&entry.design.etpn);
        db.runs = 4;
        db.steps = 17;

        let r = Registry::new(BreakerConfig::default());
        r.absorb_recovered_cov(db.clone()).unwrap();
        r.absorb_recovered_cov(db).unwrap();
        assert_eq!(r.orphan_cov_count(), 1);
        let (e, _) = r.register(SRC).unwrap();
        assert_eq!(r.orphan_cov_count(), 0);
        let cov = e.cov.lock().unwrap();
        assert_eq!(cov.runs, 8, "both frames merged");
        assert_eq!(cov.steps, 34);
    }

    #[test]
    fn coverage_that_does_not_fit_its_design_is_refused() {
        let staging = Registry::new(BreakerConfig::default());
        let (entry, _) = staging.register(SRC).unwrap();
        let db = CovDb::new(&entry.design.etpn);
        let mut wide = db.clone();
        wide.arc_open = etpn_core::bitset::BitSet::new(db.arc_open.capacity() + 64);
        wide.runs = 9;

        // Parked, then refused by the parked DB.
        let r = Registry::new(BreakerConfig::default());
        r.absorb_recovered_cov(db.clone()).unwrap();
        assert!(r.absorb_recovered_cov(wide.clone()).is_err());
        // Registered, then refused by the live DB, which stays untouched.
        let (e, _) = r.register(SRC).unwrap();
        assert!(r.absorb_recovered_cov(wide.clone()).is_err());
        assert_eq!(*e.cov.lock().unwrap(), db);

        // A misfit parked alone is dropped at registration.
        let r = Registry::new(BreakerConfig::default());
        r.absorb_recovered_cov(wide).unwrap();
        let (e, fresh) = r.register(SRC).unwrap();
        assert!(fresh);
        assert_eq!(r.orphan_cov_count(), 0);
        assert_eq!(*e.cov.lock().unwrap(), db);
    }

    #[test]
    fn fingerprint_round_trips_through_text() {
        assert_eq!(parse_fingerprint(&format_fingerprint(42)), Some(42));
        assert_eq!(
            parse_fingerprint(&format_fingerprint(u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(parse_fingerprint(""), None);
        assert_eq!(parse_fingerprint("0x"), None);
        assert_eq!(parse_fingerprint("xyz"), None);
    }
}
