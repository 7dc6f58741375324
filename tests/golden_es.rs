//! Golden external event structures of the compiled backend.
//!
//! Each test runs a catalogue workload on the **compiled** step engine and
//! compares a textual digest of its external event structure (Def. 3.4/3.5:
//! per-arc value sequences plus the `≺`/`≍` relations) byte-for-byte
//! against the checked-in file under `tests/golden/es/`. Because the
//! differential battery separately proves compiled ≡ interp, these files
//! pin the *absolute* observable behaviour of both engines. Regenerate
//! after an intentional semantic change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_es
//! ```

use etpn_core::StableHasher;
use etpn_sim::Simulator;
use etpn_workloads::by_name;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/es")
        .join(format!("{name}.txt"))
}

/// Render the event structure of a compiled-backend run as a stable,
/// human-diffable digest document.
fn digest(name: &str) -> String {
    let w = by_name(name).unwrap_or_else(|| panic!("workload `{name}` not in catalog"));
    let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
    let mut sim = Simulator::new(&d.etpn, w.env());
    for (n, v) in &d.reg_inits {
        sim = sim.init_register(n, *v);
    }
    let trace = sim.run(w.max_steps).expect("workload simulates");
    let es = etpn_sim::event_structure(&d.etpn, &trace);

    let mut out = String::new();
    let _ = writeln!(out, "design {:#018x}", d.etpn.fingerprint());
    let _ = writeln!(out, "termination {:?}", trace.termination);
    let _ = writeln!(out, "steps {} firings {}", trace.steps, trace.firings);
    for (arc, values) in &es.events {
        let _ = writeln!(out, "arc {arc} {values:?}");
    }
    let _ = writeln!(out, "precedent {}", es.precedent.len());
    let _ = writeln!(out, "concurrent {}", es.concurrent.len());
    // One word that covers the relations in full (they are too large to
    // list) — any reordering or membership change flips it.
    let mut h = StableHasher::new();
    h.write_str(&format!("{:?}{:?}", es.precedent, es.concurrent));
    let _ = writeln!(out, "relations {:#018x}", h.finish());
    out
}

fn check_golden(name: &str) {
    let rendered = digest(name);
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "compiled-backend event structure for `{name}` drifted from {}; \
         run with UPDATE_GOLDEN=1 if the change is intentional.\n\
         rendered:\n{rendered}",
        path.display()
    );
}

#[test]
fn gcd_event_structure_matches_golden() {
    check_golden("gcd");
}

#[test]
fn diffeq_event_structure_matches_golden() {
    check_golden("diffeq");
}

/// Fingerprints persist in recordings, `cov.journal` and the files above,
/// and they hash every object's name. These are the values from before
/// names moved inline, pinned with no regeneration switch, so a change to
/// how a generator or the compiler spells a name fails here.
#[test]
fn generated_and_example_fingerprints_are_pinned() {
    let gcd = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/gcd.hdl"))
        .expect("example source");
    let gcd = etpn_synth::compile_source(&gcd).expect("gcd compiles");
    let pinned = [
        (
            "random_net(1, 1024)",
            etpn_workloads::random_net(1, 1024),
            0x9cf7_18a0_1dc1_9f08,
        ),
        (
            "random_design(11, 20, 4)",
            etpn_workloads::random_design(11, 20, 4),
            0xc77e_631a_cfc9_8141,
        ),
        ("examples/gcd.hdl", gcd.etpn, 0x3a37_64f5_beaa_7776),
    ];
    for (what, g, fp) in pinned {
        assert_eq!(g.fingerprint(), fp, "{what}: {:#018x}", g.fingerprint());
    }
}
