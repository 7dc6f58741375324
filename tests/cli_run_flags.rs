//! Every simulating `etpnc` subcommand reads its run flags through one
//! parser, so they all accept, reject and position those flags alike.

use std::process::{Command, Output};

const GCD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/gcd.hdl");
const INPUTS: [&str; 4] = ["--set", "a=12", "--set", "b=8"];

fn etpnc(args: &[&[&str]]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_etpnc"))
        .args(args.concat())
        .output()
        .expect("etpnc runs")
}

#[test]
fn run_flags_are_parsed_alike_by_every_subcommand() {
    let dir = std::env::temp_dir().join(format!("etpn-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let rec = dir.join("out.etpnrec");
    let rec = rec.to_str().unwrap();

    // An unknown backend is a usage error everywhere, not a silent default.
    // The `Debug` name of an engine is not its CLI spelling.
    for cmd in [
        &["run"][..],
        &["run", "--jobs", "2"],
        &["record", "-o", rec],
        &["fault"],
        &["cov"],
        &["dot", "--heat"],
    ] {
        for backend in ["bogus", "Compiled"] {
            let out = etpnc(&[cmd, &[GCD], &INPUTS, &["--backend", backend]]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd:?} {backend}: {err}");
            assert!(
                err.contains(&format!("--backend {backend}: expected compiled")),
                "{err}"
            );
        }
    }

    // A fleet battery cannot flight-record: refused, nothing written.
    let out = etpnc(&[&["run", GCD], &INPUTS, &["--jobs", "2", "--record", rec]]);
    assert!(!out.status.success(), "{out:?}");
    assert!(!std::path::Path::new(rec).exists());

    // A flag's value is never mistaken for the design file.
    let out = etpnc(&[&["run", "--steps", "2000", GCD], &INPUTS]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("g = [4]"));
}
