//! # etpn-lint — whole-design static verifier for ETPN
//!
//! A lint registry and diagnostics engine over the `etpn-analysis` passes.
//! Every check — the five *properly designed* rules of the paper's
//! Def. 3.2 and a family of new lints (dead code, guard incompleteness,
//! write-never-read registers, invariant-based write-write races) — emits
//! [`Diagnostic`]s with stable codes, source-mapped byte-span labels (via
//! the [`etpn_synth::SourceMap`] the compiler records), and three
//! renderers: rustc-style text, JSON lines, and SARIF 2.1.
//!
//! ## Code scheme
//!
//! * `E1xx` — front-end errors (lex / parse / semantic), produced by
//!   [`lang_diagnostic`] from an [`etpn_lang::LangError`];
//! * `E2xx` — Def. 3.2 violations: a design carrying one is **not
//!   properly designed**;
//! * `W3xx` — lints: legal but almost certainly wrong. `W390` flags an
//!   exhausted exploration budget (safeness `Unknown`), deliberately a
//!   warning rather than an error so a clean-but-huge design is not
//!   condemned by the budget.
//!
//! ## Engine
//!
//! [`lint`] runs every registered pass in parallel (one scoped thread
//! each), times each pass (also visible as `etpn-obs` spans under
//! `lint.*`), and returns a deterministic, deduplicated, severity-sorted
//! [`LintReport`]. Safeness is [`etpn_analysis::proper::safeness`]: the
//! P-invariant cover first, then exploration under a node *and* edge
//! budget that degrades to `W390` instead of running away.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diag;
pub mod lints;
pub mod render;

pub use diag::{lookup, Code, Diagnostic, Label, Severity, ALL_CODES};
pub use lints::dead::statically_dead;
pub use lints::race::{possibly_concurrent_writes, RacePair};

use etpn_core::Etpn;
use etpn_synth::{CompiledDesign, SourceMap};
use std::time::{Duration, Instant};

/// Tunables for the analysis-backed lints.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Marking budget for reachability-backed checks (safeness, liveness).
    /// The edge budget is derived (see [`etpn_analysis::ExploreBudget`]).
    pub max_states: usize,
    /// Diagnostic codes to suppress entirely (`--allow`).
    pub allow: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            max_states: 1 << 16,
            allow: Vec::new(),
        }
    }
}

/// Everything a lint pass can look at.
pub struct LintContext<'a> {
    /// The design under analysis.
    pub g: &'a Etpn,
    /// Model-element → source-span mapping recorded by the compiler.
    pub map: &'a SourceMap,
    /// Budgets and suppressions.
    pub cfg: &'a LintConfig,
}

/// The result of running the whole registry.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Deduplicated findings, errors first, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall time per pass, in registry order.
    pub timings: Vec<(&'static str, Duration)>,
}

impl LintReport {
    /// `(errors, warnings, notes)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Note => c.2 += 1,
            }
        }
        c
    }

    /// True when the report contains findings that fail the run: errors
    /// always do, warnings only under `--deny warnings`.
    pub fn has_denied(&self, deny_warnings: bool) -> bool {
        self.diagnostics.iter().any(|d| match d.severity {
            Severity::Error => true,
            Severity::Warning => deny_warnings,
            Severity::Note => false,
        })
    }
}

/// Run every registered lint over a design, in parallel, and collect a
/// deterministic report.
pub fn lint(g: &Etpn, map: &SourceMap, cfg: &LintConfig) -> LintReport {
    let _span = etpn_obs::span("lint.run");
    let cx = LintContext { g, map, cfg };
    let passes = lints::PASSES;
    let mut slots: Vec<Option<(Vec<Diagnostic>, Duration)>> = Vec::new();
    slots.resize_with(passes.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(passes.len());
        for pass in passes {
            let cx = &cx;
            handles.push(scope.spawn(move || {
                let _span = etpn_obs::span(pass.name);
                let start = Instant::now();
                let diags = (pass.run)(cx);
                (diags, start.elapsed())
            }));
        }
        for (slot, handle) in slots.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("lint pass panicked"));
        }
    });

    let mut diagnostics = Vec::new();
    let mut timings = Vec::with_capacity(passes.len());
    for (pass, slot) in passes.iter().zip(slots) {
        let (diags, elapsed) = slot.expect("every pass joined");
        timings.push((pass.name, elapsed));
        diagnostics.extend(diags);
    }
    diagnostics.retain(|d| !cfg.allow.iter().any(|a| a == d.code.id));
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    diagnostics.dedup();
    LintReport {
        diagnostics,
        timings,
    }
}

/// [`lint`] over a compiled design, using its recorded source map.
pub fn lint_compiled(d: &CompiledDesign, cfg: &LintConfig) -> LintReport {
    lint(&d.etpn, &d.src_map, cfg)
}

/// Convert a front-end error into the matching `E1xx` diagnostic so
/// parse/check failures flow through the same renderers as lint findings.
pub fn lang_diagnostic(err: &etpn_lang::LangError) -> Diagnostic {
    use etpn_lang::LangError;
    let code = match err {
        LangError::Lex { .. } => diag::E101,
        LangError::Parse { .. } => diag::E102,
        LangError::Semantic { .. } => diag::E103,
    };
    Diagnostic::new(code, err.message()).with_label(err.span(), "reported here")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_is_clean() {
        let d = etpn_synth::compile_source(&etpn_workloads::gcd::source()).unwrap();
        let report = lint_compiled(&d, &LintConfig::default());
        let (errors, warnings, _) = report.counts();
        assert_eq!(errors, 0, "{:?}", report.diagnostics);
        assert_eq!(warnings, 0, "{:?}", report.diagnostics);
        assert_eq!(report.timings.len(), lints::PASSES.len());
        assert!(!report.has_denied(true));
    }

    #[test]
    fn allow_suppresses_codes() {
        // A net with an idle terminal place: W308 fires, then --allow
        // suppresses exactly that code and leaves the rest alone.
        let mut b = etpn_core::EtpnBuilder::new();
        let a = b.input("a");
        let y = b.output("y");
        let emit = b.connect(b.out_port(a, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        b.control(s0, [emit]);
        let s_end = b.place("end");
        b.seq(s0, s_end, "t0");
        b.mark(s0);
        let g = b.finish().unwrap();
        let map = SourceMap::default();
        let all = lint(&g, &map, &LintConfig::default());
        assert!(
            all.diagnostics.iter().any(|d| d.code.id == "W308"),
            "{:?}",
            all.diagnostics
        );
        let cfg = LintConfig {
            allow: vec!["W308".into()],
            ..LintConfig::default()
        };
        let filtered = lint(&g, &map, &cfg);
        assert!(filtered.diagnostics.iter().all(|d| d.code.id != "W308"));
        assert_eq!(
            filtered.diagnostics.len(),
            all.diagnostics.len()
                - all
                    .diagnostics
                    .iter()
                    .filter(|d| d.code.id == "W308")
                    .count()
        );
    }

    #[test]
    fn lang_errors_map_to_codes() {
        let lex = etpn_lang::parse("design x { § }").unwrap_err();
        assert_eq!(lang_diagnostic(&lex).code.id, "E101");
        let parse = etpn_lang::parse("design x {").unwrap_err();
        assert_eq!(lang_diagnostic(&parse).code.id, "E102");
        let sem = etpn_lang::parse_and_check("design x { in a; out y; y = q; }").unwrap_err();
        let d = lang_diagnostic(&sem);
        assert_eq!(d.code.id, "E103");
        assert!(d.primary_span().is_some(), "semantic errors carry spans");
    }
}
