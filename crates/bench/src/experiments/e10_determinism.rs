//! **E10 — properly designed ⇒ observably deterministic.**
//!
//! The point of Def. 3.2: the intrinsic nondeterminism of the firing rule
//! must not be observable. Every benchmark runs under the maximal-step
//! policy plus batteries of randomized policies; the extracted external
//! event structures must coincide. Two deliberately *improper* designs are
//! included as controls, and the battery must flag both: two parallel
//! states writing one register (an input conflict), and a read/write race
//! whose divergence the table prints as a witness. The race passes the
//! static Def. 3.2 check, which compares only the vertices parallel states
//! write.

use crate::table::Table;
use crate::Scale;
use etpn_sim::determinism::{read_write_race, register_conflict};
use etpn_sim::{check_determinism, DeterminismReport, SimError};
use etpn_workloads::catalog;

/// Run E10.
pub fn run(scale: Scale) -> Table {
    let seeds = scale.n(3, 16) as u64;
    let mut table = Table::new(
        "E10",
        "policy invariance of properly designed systems",
        &["design", "proper?", "runs", "verdict"],
    );
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).unwrap();
        let proper = etpn_analysis::check_properly_designed(&d.etpn).is_proper();
        let report =
            etpn_sim::check_determinism_with(&d.etpn, &w.env(), seeds, w.max_steps, &d.reg_inits);
        let (runs, verdict) = match report {
            Ok(DeterminismReport::Deterministic { runs }) => (runs, "deterministic".to_string()),
            Ok(DeterminismReport::Divergent { witness }) => {
                (0, format!("DIVERGENT: {}", witness.render(&d.etpn)))
            }
            Err(e) => (0, format!("sim error: {e}")),
        };
        table.row([
            w.name.to_string(),
            proper.to_string(),
            runs.to_string(),
            verdict,
        ]);
    }
    // The controls: improper designs the battery must flag, one by an
    // input conflict, the other by a divergence with its witness.
    for (name, bad) in [
        ("improper-ctrl", register_conflict()),
        ("race-ctrl", read_write_race()),
    ] {
        let proper = etpn_analysis::check_properly_designed(&bad).is_proper();
        let verdict = match check_determinism(&bad, &etpn_sim::ScriptedEnv::new(), seeds, 200) {
            Err(SimError::InputConflict { .. }) => "conflict detected".to_string(),
            Ok(DeterminismReport::Divergent { witness }) => {
                format!("DIVERGENT (as expected): {}", witness.render(&bad))
            }
            Ok(_) => "undetected!".to_string(),
            Err(e) => format!("sim error: {e}"),
        };
        table.row([
            name.to_string(),
            proper.to_string(),
            "-".to_string(),
            verdict,
        ]);
    }
    table.interpret(
        "all properly designed benchmarks are policy-invariant; the register \
         conflict is caught statically and dynamically, while the read/write \
         race passes the static Def. 3.2 check and only the battery catches it",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_catches_the_improper_controls() {
        let t = run(Scale::Quick);
        let [.., conflict, race] = &t.rows[..] else {
            panic!("two control rows: {:?}", t.rows);
        };
        assert_eq!(conflict[0], "improper-ctrl");
        assert_eq!(conflict[1], "false", "statically flagged");
        assert_eq!(conflict[3], "conflict detected");
        assert_eq!(race[0], "race-ctrl");
        // Def. 3.2(1) compares the states' associated (written) vertices,
        // so a read racing a write passes the static check.
        assert_eq!(race[1], "true", "not statically flagged");
        assert_eq!(
            race[3],
            "DIVERGENT (as expected): MaximalStep vs SingleRandom { seed: 2 } (job 6): value \
             sequences on arc a2 (p5 of `y`) differ at event 0: ⊥ vs 2"
        );
    }

    #[test]
    fn e10_benchmarks_deterministic() {
        let t = run(Scale::Quick);
        for row in &t.rows[..t.rows.len() - 2] {
            assert_eq!(row[1], "true", "{row:?}");
            assert_eq!(row[3], "deterministic", "{row:?}");
        }
    }
}
