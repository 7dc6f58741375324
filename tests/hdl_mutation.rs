//! The HDL front end on text it was not written for. Every truncation and
//! three single-bit flips (0x01, 0x20, 0x40) at every byte of the shipped
//! sources must compile or return an error, never panic; a mutant that
//! compiles must validate and clone to an equal design with the same
//! fingerprint. A design whose names outgrow `Name`'s inline bytes must
//! compile, run and print those names whole.

use etpn::core::Etpn;
use etpn::synth::compile_source;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;

const EXAMPLES: [&str; 3] = ["gcd", "diffeq", "wide_par"];

/// Every shipped source: the examples and the eight catalogue designs.
fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = EXAMPLES
        .iter()
        .map(|name| {
            let path = format!("{}/examples/{name}.hdl", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).expect("example source");
            (format!("{name}.hdl"), src)
        })
        .collect();
    for w in etpn::workloads::catalog() {
        out.push((w.name.to_string(), w.source));
    }
    out
}

/// Every truncation and every flip of bit 0, 5 or 6 of each byte.
fn mutants(src: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..src.len()).map(|n| src[..n].to_vec());
    let flips = (0..src.len()).flat_map(move |i| {
        [0x01u8, 0x20, 0x40].into_iter().map(move |bit| {
            let mut m = src.to_vec();
            m[i] ^= bit;
            m
        })
    });
    cuts.chain(flips)
}

/// A compiled mutant is a well-formed design: it validates, and its clone
/// is equal to it with the same fingerprint.
fn check_design(g: &Etpn) -> Result<(), String> {
    g.validate()
        .map_err(|e| format!("does not validate: {e}"))?;
    let copy = g.clone();
    if copy != *g {
        return Err("clone differs".into());
    }
    if copy.fingerprint() != g.fingerprint() {
        return Err("clone's fingerprint differs".into());
    }
    Ok(())
}

#[test]
fn byte_mutants_of_every_source_compile_or_fail_cleanly() {
    let (mut tried, mut compiled) = (0usize, 0usize);
    let mut failures = Vec::new();
    for (name, src) in sources() {
        for (k, bytes) in mutants(src.as_bytes()).enumerate() {
            // The front end reads text: a mutant that is not UTF-8 never
            // reaches it.
            let Ok(text) = std::str::from_utf8(&bytes) else {
                continue;
            };
            tried += 1;
            match catch_unwind(AssertUnwindSafe(|| compile_source(text))) {
                Err(_) => failures.push(format!("{name} mutant {k}: panicked")),
                Ok(Err(_)) => {}
                Ok(Ok(d)) => {
                    compiled += 1;
                    if let Err(e) = check_design(&d.etpn) {
                        failures.push(format!("{name} mutant {k}: {e}"));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {tried} mutants: {failures:#?}",
        failures.len()
    );
    // The battery reaches the back end, not only the parser.
    assert!(tried > 20_000, "only {tried} UTF-8 mutants");
    assert!(
        compiled > 1_000,
        "only {compiled} of {tried} mutants compiled"
    );
}

const LONG_IN: &str = "input_operand_with_a_very_long_descriptive_name";
const LONG_REG: &str = "accumulator_register_with_a_very_long_descriptive_name";
const LONG_OUT: &str = "result_output_with_a_very_long_descriptive_name";
const UNREAD: &str = "scratch_register_written_but_never_read_anywhere";

fn etpnc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_etpnc"))
        .args(args)
        .output()
        .expect("etpnc runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn names_past_the_inline_bytes_compile_run_and_print_whole() {
    for name in [LONG_IN, LONG_REG, LONG_OUT, UNREAD] {
        assert!(name.len() >= 40, "{name}");
    }
    let src = format!(
        "design long_names {{\n  in {LONG_IN};\n  out {LONG_OUT};\n  reg {LONG_REG}, {UNREAD};\n  \
         {LONG_REG} = {LONG_IN};\n  {UNREAD} = {LONG_IN};\n  \
         {LONG_REG} = {LONG_REG} + {LONG_REG};\n  {LONG_OUT} = {LONG_REG} + 1;\n}}\n"
    );
    let d = compile_source(&src).expect("long names compile");
    for name in [LONG_IN, LONG_REG, LONG_OUT, UNREAD] {
        let v = d.etpn.dp.vertex_by_name(name).expect("a vertex per name");
        let stored = &d.etpn.dp.vertex(v).name;
        assert!(!stored.is_inline(), "{name} sits on the heap");
        assert_eq!(stored.as_str(), name);
    }
    check_design(&d.etpn).expect("a well-formed design");

    let dir = std::env::temp_dir().join(format!("etpn-long-names-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let hdl = dir.join("long.hdl");
    let vcd = dir.join("long.vcd");
    std::fs::write(&hdl, &src).expect("write source");
    let (hdl, vcd_path) = (hdl.to_str().unwrap(), vcd.to_str().unwrap());

    // (20 + 20) + 1.
    let set = format!("{LONG_IN}=20");
    let (ok, stdout, stderr) = etpnc(&["run", hdl, "--set", &set, "--vcd", vcd_path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(&format!("{LONG_OUT} = [41]")), "{stdout}");
    let wave = std::fs::read_to_string(&vcd).expect("VCD written");
    for name in [LONG_REG, UNREAD] {
        assert!(
            wave.contains(&format!(" {name} $end")),
            "{name} missing from the VCD:\n{wave}"
        );
    }

    // The write-only register is linted by its full name.
    let (ok, json, stderr) = etpnc(&["check", hdl, "--format=json"]);
    assert!(ok, "{stderr}");
    let line = json
        .lines()
        .find(|l| l.contains("\"W306\""))
        .unwrap_or_else(|| panic!("no W306 diagnostic:\n{json}"));
    let doc = etpn::core::json::parse(line).expect("a JSON diagnostic per line");
    let message = doc.req("message").and_then(|m| m.as_str()).unwrap();
    assert!(message.contains(&format!("`{UNREAD}`")), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}
