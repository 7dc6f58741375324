//! `etpnc check`, `build` and `fault` read one Def. 3.2 verdict. The wide
//! `par` example has 2^17 reachable markings, past the exploration
//! budget, so only the invariant cover proves it safe: every subcommand
//! must take that path and call the design properly designed.

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
