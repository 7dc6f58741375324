//! **E1 / E2 — empirical validation of Theorems 4.1 and 4.2.**
//!
//! For every benchmark: apply many random legal transformation sequences
//! (data-invariant for E1, control-invariant for E2), then attack each
//! before/after pair with the randomized semantic oracle (random
//! environments × firing policies × seeds, external event structures
//! compared). The theorems predict **zero counterexamples**; E1 also runs
//! the decidable Def. 4.5 structural check on every pair.

use crate::seqgen::{random_sequence, Family};
use crate::table::Table;
use crate::Scale;
use etpn_transform::{check_data_invariant, semantic_oracle, OracleConfig, OracleVerdict};
use etpn_workloads::catalog;

fn oracle_cfg(workload: &str, scale: Scale) -> OracleConfig {
    // GCD diverges on non-positive inputs; keep its random streams positive.
    let (value_min, value_max) = if workload == "gcd" {
        (1, 64)
    } else {
        (-64, 64)
    };
    OracleConfig {
        environments: scale.n(3, 10) as u32,
        stream_len: 6,
        policy_seeds: scale.n(1, 2) as u64,
        max_steps: 60_000,
        value_min,
        value_max,
        threads: 0,
    }
}

fn run_family(id: &str, title: &str, family: Family, scale: Scale) -> Table {
    let mut table = Table::new(
        id,
        title,
        &[
            "workload",
            "sequences",
            "moves",
            "oracle runs",
            "skipped envs",
            "struct fails",
            "counterexamples",
        ],
    );
    let mut first_cex: Option<String> = None;
    for w in catalog() {
        let g0 = etpn_synth::compile_source(&w.source).unwrap().etpn;
        let sequences = scale.n(2, 8);
        let mut moves = 0usize;
        let mut runs = 0u64;
        let mut skipped_envs = 0u32;
        let mut struct_fails = 0usize;
        let mut cex = 0u64;
        for seed in 0..sequences as u64 {
            let (g2, applied) = random_sequence(&g0, family, seed, scale.n(4, 12));
            moves += applied.len();
            if family == Family::DataInvariant && !check_data_invariant(&g0, &g2).is_equivalent() {
                struct_fails += 1;
            }
            let failure = match semantic_oracle(&g0, &g2, oracle_cfg(w.name, scale)) {
                OracleVerdict::NoCounterexample { runs: r, skipped } => {
                    runs += r;
                    skipped_envs += skipped;
                    continue;
                }
                OracleVerdict::Counterexample { env_seed, witness } => {
                    format!("env seed {env_seed}: {}", witness.render(&g0))
                }
                OracleVerdict::SimFailure { env_seed, error } => {
                    format!("env seed {env_seed}: {}", error.describe(&g0))
                }
            };
            cex += 1;
            first_cex.get_or_insert_with(|| format!("{} sequence {seed}, {failure}", w.name));
        }
        table.row([
            w.name.to_string(),
            sequences.to_string(),
            moves.to_string(),
            runs.to_string(),
            skipped_envs.to_string(),
            struct_fails.to_string(),
            cex.to_string(),
        ]);
    }
    table.interpret(match first_cex {
        None => "zero counterexamples: the transformations preserve the external event \
                 structure"
            .to_string(),
        Some(first) => {
            format!("COUNTEREXAMPLES FOUND — theorem validation FAILED; first: {first}")
        }
    });
    table
}

/// E1: data-invariant transformations preserve `S(Γ)` (Thm. 4.1).
pub fn run_e1(scale: Scale) -> Table {
    run_family(
        "E1",
        "Thm 4.1 — data-invariant transformations preserve S(Γ)",
        Family::DataInvariant,
        scale,
    )
}

/// E2: control-invariant transformations preserve `S(Γ)` (Thm. 4.2).
pub fn run_e2(scale: Scale) -> Table {
    run_family(
        "E2",
        "Thm 4.2 — vertex merger/split preserve S(Γ)",
        Family::ControlInvariant,
        scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_finds_no_counterexample_quick() {
        let t = run_e1(Scale::Quick);
        assert_eq!(t.rows.len(), etpn_workloads::catalog().len());
        for row in &t.rows {
            assert_eq!(row[5], "0", "structural failures in {row:?}");
            assert_eq!(row[6], "0", "counterexamples in {row:?}");
        }
    }

    #[test]
    fn e2_finds_no_counterexample_quick() {
        let t = run_e2(Scale::Quick);
        for row in &t.rows {
            assert_eq!(row[6], "0", "counterexamples in {row:?}");
        }
    }
}
