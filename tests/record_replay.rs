//! Flight-recorder battery: record → replay byte-identity over the whole
//! catalogue × both step engines × checkpoint cadences, ring-buffer
//! retention, wire-format round-trips, random-design properties, and the
//! `etpnc why` divergence-forensics verb end to end.
//!
//! "Byte-identical" is literal, as in the backend differential battery:
//! after stripping the journals themselves (the original trace carries
//! the recording it produced, a replay carries its own re-recording), the
//! tests compare the `Debug` rendering of the whole traces — external
//! events, termination, step/firing counts, watched waveforms, marking
//! rows, coverage DBs — plus the rendered VCD documents.

use etpn_core::{Value, VertexId};
use etpn_rec::{
    Checkpoint, DivergenceReason, DivergenceReport, RecError, RecordConfig, Recording, StepRecord,
    FLAG_DATA_FAULT,
};
use etpn_sim::{
    replay_recording, vcd, Backend, Fault, FaultKind, FaultPlan, FaultSite, FaultWindow,
    ScriptedEnv, SimError, Simulator, Termination, Trace,
};
use etpn_synth::CompiledDesign;
use etpn_workloads::{by_name, catalog, random_design, random_net, Workload};
use proptest::prelude::*;

/// A fully instrumented recording simulator for a catalogue workload.
fn recorded_sim<'a>(
    w: &Workload,
    d: &'a CompiledDesign,
    backend: Backend,
    cfg: RecordConfig,
) -> Simulator<'a, ScriptedEnv> {
    let mut sim = Simulator::new(&d.etpn, w.env())
        .with_backend(backend)
        .with_coverage()
        .watch_registers()
        .watch_control()
        .with_recorder(cfg);
    for (name, v) in &d.reg_inits {
        sim = sim.init_register(name, *v);
    }
    sim
}

/// Debug rendering with the journal stripped: the original and a replay
/// each carry their own recording, which is compared separately.
fn rendering(t: &Trace) -> String {
    let mut t = t.clone();
    t.recording = None;
    format!("{t:?}")
}

/// Every catalogue workload × both backends × checkpoint cadences
/// K ∈ {1, 16, 1024}: a full-journal recording replays (under the same
/// instrumentation) into a trace byte-identical to the original — VCD
/// documents included — and the replay's own re-recording is
/// byte-identical to the journal it replayed.
#[test]
fn catalogue_record_replay_is_byte_identical() {
    for w in catalog() {
        let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
        for backend in [Backend::Interp, Backend::Compiled] {
            for every in [1u64, 16, 1024] {
                let cfg = RecordConfig::full(every);
                let trace = recorded_sim(&w, &d, backend, cfg)
                    .run(w.max_steps)
                    .expect("recorded run succeeds");
                let rec = trace.recording.as_ref().expect("recording captured");
                let replayed = recorded_sim(&w, &d, backend, cfg)
                    .replay_between(rec, rec.first_step, rec.end_step())
                    .expect("replay succeeds");
                let ctx = format!("{} / {backend:?} / K={every}", w.name);
                assert_eq!(
                    rendering(&trace),
                    rendering(&replayed),
                    "{ctx}: replay diverges from the original trace"
                );
                assert_eq!(
                    vcd::render(&d.etpn, &trace),
                    vcd::render(&d.etpn, &replayed),
                    "{ctx}: VCD bytes diverge"
                );
                let rerec = replayed.recording.as_ref().expect("replay re-records");
                assert_eq!(
                    rec.to_bytes(),
                    rerec.to_bytes(),
                    "{ctx}: the replay's re-recording diverges from the journal"
                );
            }
        }
    }
}

/// Replaying from *every* retained checkpoint reproduces exactly the
/// journaled suffix of the run, on both backends.
#[test]
fn replay_from_every_checkpoint_reproduces_the_suffix() {
    for name in ["gcd", "diffeq"] {
        let w = by_name(name).expect("catalogue workload");
        let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
        for backend in [Backend::Interp, Backend::Compiled] {
            let trace = recorded_sim(&w, &d, backend, RecordConfig::full(4))
                .run(w.max_steps)
                .expect("recorded run succeeds");
            let rec = trace.recording.as_ref().expect("recording captured");
            assert!(
                rec.checkpoints.len() >= 2,
                "{name}: cadence 4 should retain several checkpoints"
            );
            for ck in &rec.checkpoints {
                let replayed = recorded_sim(&w, &d, backend, RecordConfig::full(4))
                    .replay_between(rec, ck.step, rec.end_step())
                    .expect("replay from checkpoint succeeds");
                let suffix: Vec<_> = trace
                    .events
                    .iter()
                    .filter(|e| e.step >= ck.step)
                    .cloned()
                    .collect();
                assert_eq!(
                    suffix, replayed.events,
                    "{name} / {backend:?}: suffix from checkpoint {} diverges",
                    ck.step
                );
                assert_eq!(trace.termination, replayed.termination);
                assert_eq!(trace.steps, replayed.steps);
            }
        }
    }
}

/// A journal recorded on one backend replays bit-identically on the
/// other: the journal pins the decisions, the engine only re-derives.
#[test]
fn recordings_replay_across_backends() {
    for name in ["gcd", "diffeq", "ewf"] {
        let w = by_name(name).expect("catalogue workload");
        let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
        for (rec_on, play_on) in [
            (Backend::Interp, Backend::Compiled),
            (Backend::Compiled, Backend::Interp),
        ] {
            let trace = recorded_sim(&w, &d, rec_on, RecordConfig::full(16))
                .run(w.max_steps)
                .expect("recorded run succeeds");
            let rec = trace.recording.as_ref().expect("recording captured");
            let replayed = recorded_sim(&w, &d, play_on, RecordConfig::full(16))
                .replay_between(rec, rec.first_step, rec.end_step())
                .expect("cross-backend replay succeeds");
            assert_eq!(
                rendering(&trace),
                rendering(&replayed),
                "{name}: record on {rec_on:?}, replay on {play_on:?} diverges"
            );
        }
    }
}

/// Ring mode keeps a bounded recent window plus enough checkpoints to
/// replay it; `replay_recording` reconstructs exactly that suffix.
#[test]
fn ring_mode_retains_and_replays_a_bounded_window() {
    let w = by_name("gcd").expect("catalogue workload");
    let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
    let full = recorded_sim(&w, &d, Backend::Interp, RecordConfig::full(4))
        .run(w.max_steps)
        .expect("full recording run");
    let ring = recorded_sim(&w, &d, Backend::Interp, RecordConfig::ring(8, 4))
        .run(w.max_steps)
        .expect("ring recording run");
    assert_eq!(
        rendering(&full),
        rendering(&ring),
        "recorder perturbed the run"
    );
    let rec = ring.recording.as_ref().expect("ring recording captured");
    assert!(rec.len() <= 8, "ring retained {} > 8 records", rec.len());
    assert_eq!(rec.end_step(), ring.steps, "ring must cover the run's tail");
    assert!(rec.first_step > 0, "this run is long enough to evict");

    let replayed = replay_recording(&d.etpn, rec, rec.end_step(), Backend::Compiled)
        .expect("ring replay succeeds");
    let from = rec.checkpoints.first().map_or(rec.first_step, |c| c.step);
    let suffix: Vec<_> = full
        .events
        .iter()
        .filter(|e| e.step >= from)
        .cloned()
        .collect();
    assert_eq!(suffix, replayed.events, "ring suffix replay diverges");
    assert_eq!(full.termination, replayed.termination);
}

/// The wire format round-trips exactly, for full and ring journals.
#[test]
fn wire_format_round_trips() {
    let w = by_name("gcd").expect("catalogue workload");
    let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
    for cfg in [RecordConfig::full(4), RecordConfig::ring(8, 4)] {
        let trace = recorded_sim(&w, &d, Backend::Interp, cfg)
            .run(w.max_steps)
            .expect("recorded run succeeds");
        let rec = trace.recording.as_ref().expect("recording captured");
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).expect("decodes");
        assert_eq!(format!("{rec:?}"), format!("{back:?}"));
        assert_eq!(bytes, back.to_bytes(), "re-encoding is not canonical");
    }
}

/// `tests/golden/rec/gcd_fault.etpnrec` pins the wire format. It was
/// written by `etpnc record examples/gcd.hdl --set a=3528 --set b=3780
/// --steps 200 --every 8 --fault x:stuck0@3 -o …`, so it holds embedded
/// streams, checkpoints, an injected fault and fault flags. It decodes,
/// re-encodes byte for byte, and replays to its last step on both engines
/// without divergence.
#[test]
fn golden_recording_round_trips_and_replays() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/rec/gcd_fault.etpnrec"
    );
    let bytes = std::fs::read(path).expect("golden recording");
    let rec = Recording::from_bytes(&bytes).expect("golden recording decodes");
    assert_eq!(rec.to_bytes(), bytes, "re-encoding changed the bytes");
    let window = (rec.first_step, rec.end_step(), rec.checkpoints.len());
    assert_eq!(window, (0, 200, 25));
    assert_eq!(rec.meta.faults.len(), 1);
    let stream_names: Vec<&str> = rec.meta.streams.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(stream_names, ["a", "b"]);
    assert!(
        (0..200).any(|s| rec.record(s).is_some_and(|r| r.flags != 0)),
        "no step carries a fault flag"
    );
    let d = etpn_synth::compile_source(include_str!("../examples/gcd.hdl")).expect("gcd compiles");
    for backend in [Backend::Interp, Backend::Compiled] {
        let trace = replay_recording(&d.etpn, &rec, rec.end_step(), backend)
            .unwrap_or_else(|e| panic!("{backend:?}: {}", e.describe(&d.etpn)));
        assert_eq!(trace.steps, 200, "{backend:?}");
        assert_eq!(trace.termination, Termination::StepLimit, "{backend:?}");
    }
}

/// A checkpoint whose vectors do not fit the design is refused, naming
/// the first such checkpoint, on both engines, even after a clean wire
/// round-trip. A marking cut to 6 of 16 places used to index out of
/// bounds; one cut to a single place replayed 4 steps and reported
/// termination although the journal runs to step 13.
#[test]
fn replay_rejects_a_checkpoint_that_does_not_fit_the_design() {
    let g = random_net(3, 16);
    let trace = Simulator::new(&g, ScriptedEnv::new())
        .with_recorder(RecordConfig::full(4))
        .run(1_000)
        .expect("recorded run succeeds");
    let rec = trace.recording.as_ref().expect("recording captured");
    let steps: Vec<u64> = rec.checkpoints.iter().map(|c| c.step).collect();
    assert_eq!((steps, rec.end_step()), (vec![0, 4, 8, 12], 13));
    for (what, keep, want) in [
        ("marking", 6, g.ctl.places().capacity_bound()),
        ("marking", 1, g.ctl.places().capacity_bound()),
        ("state", 1, g.dp.ports().capacity_bound()),
        ("cursors", 1, g.dp.vertices().capacity_bound()),
    ] {
        let mut cut = rec.clone();
        for ck in &mut cut.checkpoints {
            let (mut m, mut s, mut c) = (ck.marking.clone(), ck.state.clone(), ck.cursors.clone());
            match what {
                "marking" => m.truncate(keep),
                "state" => s.truncate(keep),
                _ => c.truncate(keep),
            }
            *ck = Checkpoint::new(ck.step, m, s, c);
        }
        let cut = Recording::from_bytes(&cut.to_bytes()).expect("truncated journal decodes");
        for backend in [Backend::Interp, Backend::Compiled] {
            let err = Simulator::new(&g, ScriptedEnv::new())
                .with_backend(backend)
                .replay_between(&cut, 4, cut.end_step())
                .expect_err("a checkpoint that does not fit must not replay");
            let detail = format!("{what} has {keep} entries, the design needs {want}");
            let misfit = RecError::CheckpointMisfit { step: 0, detail };
            assert_eq!(err, SimError::ReplayRefused(misfit), "{backend:?}");
        }
    }
}

/// `rec` rebuilt row by row with `edit` applied to the row of `step`.
fn with_edited_row(rec: &Recording, step: u64, edit: impl FnOnce(&mut StepRecord)) -> Recording {
    let mut out = Recording::default();
    out.meta = rec.meta.clone();
    out.first_step = rec.first_step;
    out.checkpoints = rec.checkpoints.clone();
    let mut edit = Some(edit);
    for s in rec.first_step..rec.end_step() {
        let mut row = rec.record(s).expect("row in the window").to_owned();
        if s == step {
            (edit.take().expect("one edited row"))(&mut row);
        }
        out.push_record(&row);
    }
    out
}

/// Replay refuses a journal with one field of one step changed: a
/// latched value, an advanced input, an event value, the fault flags or
/// a fired transition. On both engines the divergence is at exactly
/// that step and names the field as `etpnc why` does.
#[test]
fn replay_refuses_a_journal_with_one_field_of_one_step_changed() {
    let w = by_name("gcd").expect("catalogue workload");
    let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
    let trace = recorded_sim(&w, &d, Backend::Interp, RecordConfig::full(16))
        .run(w.max_steps)
        .expect("recorded run succeeds");
    let rec = trace.recording.as_ref().expect("recording captured");
    let first_step_with = |has: &dyn Fn(&StepRecord) -> bool| -> u64 {
        (rec.first_step..rec.end_step())
            .find(|&s| has(&rec.record(s).unwrap().to_owned()))
            .expect("some step has the field")
    };
    let unfired = |row: &StepRecord| {
        d.etpn
            .ctl
            .transitions()
            .ids()
            .find(|t| !row.fired.contains(t))
            .expect("a transition this step does not fire")
    };
    type Edit<'a> = Box<dyn Fn(&mut StepRecord) + 'a>;
    let cases: [(DivergenceReason, u64, Edit); 5] = [
        (
            DivergenceReason::LatchDiffer,
            first_step_with(&|r| !r.latched.is_empty()),
            Box::new(|r| r.latched[0].1 = Value::Def(r.latched[0].1.as_i64().unwrap() + 1)),
        ),
        (
            DivergenceReason::InputDiffer,
            first_step_with(&|r| !r.advanced.is_empty()),
            Box::new(|r| r.advanced[0] = VertexId::new(r.advanced[0].0 + 1)),
        ),
        (
            DivergenceReason::EventDiffer,
            first_step_with(&|r| !r.events.is_empty()),
            Box::new(|r| r.events[0].1 = Value::Def(-1)),
        ),
        (
            DivergenceReason::FlagsDiffer,
            first_step_with(&|r| r.flags == 0 && !r.fired.is_empty()),
            Box::new(|r| r.flags = FLAG_DATA_FAULT),
        ),
        (
            DivergenceReason::FiredDiffer,
            first_step_with(&|r| !r.fired.is_empty()),
            Box::new(|r| r.fired[0] = unfired(r)),
        ),
    ];
    for (reason, step, edit) in cases {
        let bad = with_edited_row(rec, step, edit);
        for backend in [Backend::Interp, Backend::Compiled] {
            let err = recorded_sim(&w, &d, backend, RecordConfig::full(16))
                .replay_between(&bad, bad.first_step, bad.end_step())
                .expect_err("an edited journal must not replay");
            let SimError::ReplayDivergence { step: at, detail } = err else {
                panic!("{reason} / {backend:?}: {err:?}");
            };
            assert_eq!(at, step, "{reason} / {backend:?}: {detail}");
            assert!(
                detail.starts_with(&format!("{reason}: ")),
                "{reason} / {backend:?}: {detail}"
            );
        }
    }
}

/// A fault campaign's forensic recording pair: the first divergence of
/// golden vs faulty falls inside the fault window, and the causal slice
/// names the injected port.
#[test]
fn fault_divergence_is_in_window_and_slices_to_the_injected_port() {
    let w = by_name("gcd").expect("catalogue workload");
    let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
    let g = &d.etpn;
    let x = g.dp.vertex_by_name("x").expect("gcd has register x");
    let port = g.dp.vertex(x).outputs[0];
    let activation = 3u64;

    let record = |faults: Option<FaultPlan>| -> Recording {
        let mut sim = recorded_sim(&w, &d, Backend::Interp, RecordConfig::full(16));
        if let Some(plan) = faults {
            sim = sim.with_faults(plan);
        }
        // The stuck register keeps the loop from terminating; 200 steps of
        // journal are plenty to localise the first divergence.
        sim.run(200)
            .expect("run succeeds")
            .recording
            .expect("recording captured")
    };
    let golden = record(None);
    let faulty = record(Some(FaultPlan::single(Fault {
        site: FaultSite::Port(port),
        kind: FaultKind::StuckAt0,
        window: FaultWindow::Permanent(activation),
    })));

    let rep = DivergenceReport::between(g, &golden, &faulty)
        .expect("same design")
        .expect("fault must cause divergence");
    assert!(
        rep.divergence.step >= activation,
        "divergence at {} precedes the fault window start {activation}",
        rep.divergence.step
    );
    assert!(
        rep.slice.contains_port(port),
        "causal slice omits the injected port: {}",
        rep.text(g)
    );
    assert!(rep.text(g).contains("first divergence at step"));
    assert!(rep.json(g).contains("\"step\""));
    assert!(rep.dot_heat(g).starts_with("digraph"));
}

/// End-to-end through the CLI: `etpnc record` twice (golden and a seeded
/// fault), then `etpnc why` locates the divergence, names the injected
/// port in the causal slice, and exits with the divergence code 7.
#[test]
fn etpnc_why_names_the_injected_port() {
    let bin = env!("CARGO_BIN_EXE_etpnc");
    let design = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/gcd.hdl");
    let dir = std::env::temp_dir().join(format!("etpn-why-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let golden = dir.join("golden.etpnrec");
    let faulty = dir.join("faulty.etpnrec");

    let record = |out: &std::path::Path, fault: Option<&str>| -> std::process::Output {
        let mut cmd = std::process::Command::new(bin);
        cmd.args(["record", design, "--set", "a=3528", "--set", "b=3780"])
            .args(["--steps", "200", "-o"])
            .arg(out);
        if let Some(f) = fault {
            cmd.args(["--fault", f]);
        }
        cmd.output().expect("etpnc runs")
    };
    let g = record(&golden, None);
    assert!(g.status.success(), "golden record failed: {g:?}");
    // The faulty run never terminates (x is stuck), so record exits with
    // the step-limit code 3 — the journal is still written first.
    let f = record(&faulty, Some("x:stuck0@3"));
    assert_eq!(f.status.code(), Some(3), "faulty record: {f:?}");

    let why = std::process::Command::new(bin)
        .args([
            "why",
            design,
            golden.to_str().unwrap(),
            faulty.to_str().unwrap(),
        ])
        .output()
        .expect("etpnc why runs");
    assert_eq!(
        why.status.code(),
        Some(7),
        "why must exit diverged: {why:?}"
    );
    let out = String::from_utf8_lossy(&why.stdout);
    assert!(out.contains("first divergence at step 3"), "{out}");
    assert!(
        out.contains("x/"),
        "slice must name the injected port: {out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random designs record and replay bit-identically on both backends
    /// across all three checkpoint cadences.
    #[test]
    fn random_designs_record_and_replay(
        seed in 0u64..200,
        n_places in 6usize..24,
        n_regs in 1usize..5,
        every_ix in 0usize..3,
    ) {
        let every = [1u64, 16, 1024][every_ix];
        let g = random_design(seed, n_places, n_regs);
        let env = ScriptedEnv::new().with_stream("x", (0..64).collect::<Vec<i64>>());
        for backend in [Backend::Interp, Backend::Compiled] {
            let trace = Simulator::new(&g, env.clone())
                .with_backend(backend)
                .watch_registers()
                .watch_control()
                .with_recorder(RecordConfig::full(every))
                .run(2_000)
                .expect("recorded run succeeds");
            let rec = trace.recording.as_ref().expect("recording captured");
            let replayed = Simulator::new(&g, env.clone())
                .with_backend(backend)
                .watch_registers()
                .watch_control()
                .replay_between(rec, rec.first_step, rec.end_step())
                .expect("replay succeeds");
            prop_assert_eq!(&trace.events, &replayed.events);
            prop_assert_eq!(trace.steps, replayed.steps);
            prop_assert_eq!(trace.firings, replayed.firings);
            prop_assert_eq!(&trace.watched, &replayed.watched);
            prop_assert_eq!(&trace.marking_rows, &replayed.marking_rows);
            let end_matches = trace.termination == replayed.termination
                || (trace.termination == Termination::StepLimit
                    && replayed.termination == Termination::Terminated);
            prop_assert!(end_matches, "{:?} vs {:?}", trace.termination, replayed.termination);
        }
    }
}
