//! **E12 — fault-injection campaigns.**
//!
//! The resilience sweep of the fault-injection PR: exhaustive single-fault
//! campaigns (stuck-at-0/1 and a transient bit-flip on every data-path
//! port, token loss/duplication in every control place) over the GCD and
//! differential-equation workloads, classifying each fault as masked,
//! silent data corruption, detected (a Def. 3.2 monitor or input check
//! tripped), or hang against the golden event structure.
//!
//! Acceptance: every campaign partitions its fault list completely
//! (no aborts — injected faults never escape their job), the golden run is
//! byte-identical before and after each sweep (injection never leaks into
//! the clean path), and zero jobs panic through the fleet's containment.

use crate::table::Table;
use crate::Scale;
use etpn_sim::{run_campaign, CampaignConfig, FaultClass, Fleet, RunSpec, SimJob};
use etpn_workloads::by_name;

/// Run E12.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E12",
        "single-fault campaign resilience partition (per workload)",
        &[
            "workload", "faults", "masked", "sdc", "detected", "hang", "panics", "sound",
        ],
    );
    // Quick mode drops the control-place faults: hangs dominate them and
    // each one burns its full step budget, so they cost the most wall time.
    let include_control = scale == Scale::Full;
    for name in ["gcd", "diffeq"] {
        let w = by_name(name).expect("workload exists");
        let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
        let spec = RunSpec {
            max_steps: w.max_steps,
            registers: d.reg_inits.clone(),
            ..RunSpec::default()
        };
        let proto = SimJob::from_spec(&d.etpn, w.env(), spec);
        let cfg = CampaignConfig {
            include_control,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&proto, &cfg, &Fleet::new(0)).expect("golden run succeeds");
        let sound =
            report.is_total_partition() && report.golden_unchanged && report.fleet.panics == 0;
        table.row([
            name.to_string(),
            report.outcomes.len().to_string(),
            report.count(FaultClass::Masked).to_string(),
            report.count(FaultClass::SilentCorruption).to_string(),
            report.count(FaultClass::Detected).to_string(),
            report.count(FaultClass::Hang).to_string(),
            report.fleet.panics.to_string(),
            if sound { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table.interpret(
        "every fault is classified exactly once, the golden event structure \
         survives each sweep unchanged, and no job escapes containment",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_campaigns_are_sound_on_both_workloads() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let faults: u64 = row[1].parse().unwrap();
            assert!(faults > 0, "{row:?}");
            assert_eq!(row[7], "yes", "unsound campaign: {row:?}");
            let classified: u64 = row[2..6].iter().map(|c| c.parse::<u64>().unwrap()).sum();
            assert_eq!(classified, faults, "partition leak: {row:?}");
        }
    }
}
