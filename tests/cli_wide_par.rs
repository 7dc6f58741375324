//! `etpnc check`, `build` and `fault` read one Def. 3.2 verdict. The wide
//! `par` example has 2^17 reachable markings, past the exploration
//! budget, so only the invariant cover proves it safe: every subcommand
//! must take that path and call the design properly designed.
//!
//! `etpnc run --jobs` compares the design's runs under every firing
//! policy. Runs its step budget cut are not compared, and the input-read
//! race of DESIGN.md §6 item 11 is a real divergence.

use std::process::{Command, Output};

const WIDE_PAR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/wide_par.hdl");

fn etpnc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_etpnc"))
        .args(args)
        .output()
        .expect("etpnc runs")
}

#[test]
fn check_build_and_fault_agree_on_the_wide_par_design() {
    let out = etpnc(&["check", WIDE_PAR]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(text.contains("design is properly designed"), "{text}");

    let dir = std::env::temp_dir().join(format!("etpn-cli-wide-par-{}", std::process::id()));
    let out = etpnc(&["build", WIDE_PAR, "-o", dir.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{out:?}");

    let out = etpnc(&["fault", WIDE_PAR, "--set", "x=1", "--steps", "200"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(text.contains("properly designed: yes"), "{text}");
}

/// With one value on `x`, the maximal-step run's 17 branches all read it
/// in one step, while an interleaving lets only the first branch read it
/// and the others read ⊥. Both runs end on their own, so the battery
/// compares them and reports the race. With twenty values and five steps,
/// the maximal-step policies end on their own while the single-random
/// interleavings hit the budget: those four are not compared, and nothing
/// diverges.
#[test]
fn run_jobs_compares_only_runs_that_can_be_compared() {
    let out = etpnc(&["run", WIDE_PAR, "--set", "x=1", "--jobs", "2"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        text.contains(
            "MaximalStep vs SingleRandom { seed: 0 } (job 2): value sequences on arc a0 \
             (p0 of `x`) differ at event 0: 1 vs ⊥"
        ),
        "{text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("4 of 8 compared policies diverged"), "{err}");

    let x = format!("x={}", ["1"; 20].join(","));
    let out = etpnc(&["run", WIDE_PAR, "--set", &x, "--steps", "5", "--jobs", "2"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(
        text.contains(
            "4 policies agree with the deterministic reference (4 not compared: cut by a budget)"
        ),
        "{text}"
    );
}
