//! `etpnc` — the command-line driver for the ETPN synthesis flow.
//!
//! ```text
//! etpnc check  <design.hdl> [options]            # whole-design static verifier
//! etpnc build  <design.hdl> [options]            # full synthesis → files
//! etpnc run    <design.hdl> --set x=1,2 [...]    # simulate on the model
//! etpnc interp <design.hdl> --set x=1,2 [...]    # reference interpreter
//! etpnc fault  <design.hdl> --set x=1,2 [...]    # fault-injection campaign
//! etpnc cov    <design.hdl> --set x=1,2 [...]    # drive to coverage saturation
//! etpnc dot    <design.hdl>                      # graphviz to stdout
//! etpnc record <design.hdl> --set x=1,2 -o R     # simulate + write a flight recording
//! etpnc replay <design.hdl> R --at N             # time-travel replay a recording
//! etpnc why    <design.hdl> GOLD FAULTY          # first divergence + causal slice
//!
//! check options:
//!   --format text|json|sarif                  (diagnostic rendering, default
//!                                              text; json is one object per
//!                                              line, sarif is a SARIF 2.1.0
//!                                              document)
//!   --deny warnings                           (warnings also fail the run)
//!   --allow CODE                              (suppress a diagnostic code,
//!                                              repeatable, e.g. --allow W308)
//!   --max-states N                            (marking budget for the
//!                                              reachability-backed lints;
//!                                              exhaustion degrades to W390)
//! build options:
//!   --objective min-delay|min-area|balanced   (default balanced)
//!   --max-area N | --max-latency N            (constraint for the objective)
//!   --grade standard|fast|small               (module library speed grade)
//!   -o DIR                                    (output directory, default .)
//! run options:
//!   --set NAME=v1,v2,…                        (input stream, repeatable)
//!   --steps N                                 (budget, default 100000)
//!   --backend interp|compiled|compiled-nodirty
//!                                             (step engine, default interp;
//!                                              `compiled` runs the
//!                                              event-driven compiled engine —
//!                                              bit-identical, see
//!                                              tests/backend_differential.rs —
//!                                              and `compiled-nodirty` its
//!                                              full-re-evaluation ablation)
//!   --vcd FILE                                (dump register waveforms)
//!   --cov                                     (collect functional coverage and
//!                                              print the full report;
//!                                              --coverage is an alias)
//!   --jobs N                                  (batch a policy battery over N
//!                                              fleet workers, report policy
//!                                              invariance)
//!   --seeds K                                 (battery seeds, default 4)
//!   --wall-ms N                               (per-run wall-clock budget)
//!   --strict                                  (error when an input stream
//!                                              runs dry instead of reading ⊥)
//!   --record FILE                             (flight-record the run to FILE)
//!   --ring N                                  (with --record: ring-buffer
//!                                              mode retaining only the last N
//!                                              steps; default is the full
//!                                              journal)
//!   --every K                                 (with --record: checkpoint
//!                                              every K steps, default 1024)
//! record options (plus --set/--steps/--backend/--strict/--wall-ms,
//!                 and --ring/--every as for run --record):
//!   -o FILE                                   (recording output file,
//!                                              default design.etpnrec)
//!   --fault VERTEX:KIND@STEP                  (inject a fault while
//!                                              recording, repeatable; KIND is
//!                                              stuck0|stuck1|flipB, the site
//!                                              is the vertex's first output
//!                                              port; stuck faults are
//!                                              permanent from STEP, flips
//!                                              transient at STEP)
//! replay options:
//!   --at N                                    (target step, default the
//!                                              journal end)
//!   --backend interp|compiled|compiled-nodirty
//!   --vcd FILE                                (dump the replayed register
//!                                              waveforms)
//! why options:
//!   --json                                    (machine-readable divergence
//!                                              report)
//!   --dot FILE                                (causal-slice heat overlay of
//!                                              the data path)
//! fault options (plus --set/--steps/--jobs/--wall-ms as for run):
//!   --no-forensics                            (skip the per-fault divergence
//!                                              bisection against the golden
//!                                              recording)
//!   --control                                 (also inject token loss/dup
//!                                              faults into control places)
//!   --at N                                    (step for transient bit-flips,
//!                                              default 1)
//!   --retries N                               (per-job retry budget,
//!                                              default 1)
//!   --dot FILE                                (write the silent-corruption
//!                                              vulnerability map as a heat
//!                                              DOT of the data path)
//!   --cov                                     (merge functional coverage over
//!                                              the golden run and every
//!                                              faulty job)
//! cov options (plus --set/--steps/--strict as for run):
//!   --jobs N                                  (fleet workers, default all CPUs)
//!   --batch K                                 (seeds per batch, default 8)
//!   --stable K                                (stop after K batches with no
//!                                              new coverage, default 3)
//!   --max-batches N                           (hard cap, default 64)
//!   --json FILE                               (write the report as JSON)
//!   --lcov FILE                               (write an lcov-style tracefile
//!                                              mapped onto the .hdl source)
//!   --dot FILE                                (coverage-annotated control-net
//!                                              heat overlay)
//!   --fail-under PCT                          (exit 6 unless place AND
//!                                              transition coverage ≥ PCT;
//!                                              statically-dead items are
//!                                              excluded from denominators)
//! dot options:
//!   --heat                                    (simulate with the --set
//!                                              streams and colour the control
//!                                              net by activation/firing
//!                                              counts)
//! observability (run, build, interp):
//!   --profile FILE.json                       (write a Chrome trace_event
//!                                              profile; open in
//!                                              chrome://tracing or Perfetto)
//!   --stats                                   (dump counters/gauges/
//!                                              histograms after the command)
//!
//! exit codes:
//!   0   success
//!   1   error (bad usage, compile failure, simulation fault, …)
//!   2   check found denied diagnostics (errors, or warnings under --deny)
//!   3   simulation hit the step limit
//!   4   deadlock: no transition is token-enabled but tokens remain
//!   5   wall-clock budget exhausted
//!   6   coverage below the --fail-under gate
//!   7   divergence: `why` found the recordings differ, or a replay
//!       disagreed with its journal
//! ```

use etpn::analysis::proper::check_properly_designed;
use etpn::core::dot;
use etpn::obs;
use etpn::sim::{ScriptedEnv, Simulator, Termination};
use etpn::synth::{synthesize, Grade, ModuleLibrary, Objective};
use std::process::ExitCode;

/// Exit code for `check` reporting diagnostics that fail the run: errors
/// always, warnings under `--deny warnings` (distinct from generic
/// failure, `1`, so scripts can tell "design has findings" from "the tool
/// itself broke").
const EXIT_FINDINGS: u8 = 2;
/// Exit code for a run that stopped on the step budget instead of
/// terminating or quiescing (distinct from generic failure, `1`).
const EXIT_STEP_LIMIT: u8 = 3;
/// Exit code for a control-net deadlock: tokens remain but no transition
/// is token-enabled, so no budget increase can ever help.
const EXIT_DEADLOCK: u8 = 4;
/// Exit code for a run cut short by the `--wall-ms` wall-clock budget.
const EXIT_BUDGET: u8 = 5;
/// Exit code for `cov --fail-under`: the design simulated fine but place
/// or transition coverage stayed below the gate.
const EXIT_COVERAGE: u8 = 6;
/// Exit code for a located divergence: `why` found the two recordings
/// disagree, or a `replay` departed from its journal (which means the
/// recording belongs to a different design/environment, or determinism
/// itself broke).
const EXIT_DIVERGED: u8 = 7;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!(
            "usage: etpnc <check|build|run|interp|fault|cov|dot|record|replay|why|remote> \
             <design.hdl> [options]"
        );
        return ExitCode::FAILURE;
    };
    let profile_path = flag_value(rest, "--profile").map(str::to_string);
    let want_stats = rest.iter().any(|a| a == "--stats");
    if profile_path.is_some() {
        obs::set_level(obs::Level::Trace);
    } else if want_stats {
        obs::set_level(obs::Level::Stats);
    }
    let result = match cmd.as_str() {
        "check" => cmd_check(rest),
        "build" => cmd_build(rest),
        "run" => cmd_run(rest, false),
        "interp" => cmd_run(rest, true),
        "fault" => cmd_fault(rest),
        "cov" => cmd_cov(rest),
        "dot" => cmd_dot(rest),
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "why" => cmd_why(rest),
        "remote" => cmd_remote(rest),
        other => Err(format!("unknown command `{other}`")),
    };
    // Export observability before deciding the exit status so that even a
    // failed or truncated run leaves its profile behind.
    let obs_result = export_observability(profile_path.as_deref(), want_stats);
    match (result, obs_result) {
        (Ok(code), Ok(())) => code,
        (Ok(_), Err(e)) | (Err(e), _) => {
            eprintln!("etpnc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn export_observability(profile_path: Option<&str>, want_stats: bool) -> Result<(), String> {
    if profile_path.is_none() && !want_stats {
        return Ok(());
    }
    obs::flush_thread();
    let reg = obs::global();
    if let Some(path) = profile_path {
        std::fs::write(path, obs::chrome_trace(reg)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} spans)", reg.spans().len());
    }
    if want_stats {
        print!("{}", obs::stats_text(reg));
    }
    Ok(())
}

fn read_source(args: &[String]) -> Result<(String, String), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("missing design file")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok((path.clone(), src))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every value of a repeatable flag, accepting both `--flag v` and
/// `--flag=v` spellings.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let prefix = format!("{flag}=");
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 2;
        } else {
            if let Some(v) = args[i].strip_prefix(&prefix) {
                out.push(v.to_string());
            }
            i += 1;
        }
    }
    out
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    use etpn::lint::render::{render, Format};
    use etpn::lint::{lang_diagnostic, lint_compiled, LintConfig, Severity};

    let (path, src) = read_source(args)?;
    let format: Format = flag_values(args, "--format")
        .last()
        .map_or("text", String::as_str)
        .parse()?;
    let deny_warnings = match flag_values(args, "--deny").last().map(String::as_str) {
        None => false,
        Some("warnings") => true,
        Some(other) => return Err(format!("--deny {other}: only `warnings` can be denied")),
    };
    let allow = flag_values(args, "--allow");
    for code in &allow {
        if etpn::lint::lookup(code).is_none() {
            return Err(format!("--allow {code}: unknown diagnostic code"));
        }
    }
    let mut cfg = LintConfig {
        allow,
        ..LintConfig::default()
    };
    if let Some(n) = flag_values(args, "--max-states").last() {
        cfg.max_states = n.parse().map_err(|e| format!("--max-states: {e}"))?;
    }

    let emit = |diags: &[etpn::lint::Diagnostic]| {
        let out = render(format, diags, &path, &src);
        print!("{out}");
        if !out.is_empty() && !out.ends_with('\n') {
            println!();
        }
    };

    // Front-end failures flow through the same renderers as lint findings.
    let prog = match etpn::lang::parse_and_check(&src) {
        Ok(prog) => prog,
        Err(e) => {
            emit(&[lang_diagnostic(&e)]);
            if format == Format::Text {
                println!("check: 1 error, 0 warnings, 0 notes");
            }
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
    };
    let d = etpn::synth::compile(&prog).map_err(|e| e.to_string())?;
    if format == Format::Text {
        let (v, p, a, s, t) = d.etpn.size();
        println!(
            "design `{}`: {v} vertices, {p} ports, {a} arcs, {s} states, {t} transitions",
            d.name
        );
    }
    let report = lint_compiled(&d, &cfg);
    emit(&report.diagnostics);
    if format == Format::Text {
        let (errors, warnings, notes) = report.counts();
        println!("check: {errors} errors, {warnings} warnings, {notes} notes");
        if errors > 0 {
            println!("design is NOT properly designed (Def. 3.2)");
        } else if report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Warning)
        {
            println!("design is properly designed (Def. 3.2), with lint warnings");
        } else {
            println!("design is properly designed (Def. 3.2)");
        }
    }
    if report.has_denied(deny_warnings) {
        Ok(ExitCode::from(EXIT_FINDINGS))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_build(args: &[String]) -> Result<ExitCode, String> {
    let (_, src) = read_source(args)?;
    let objective = match flag_value(args, "--objective").unwrap_or("balanced") {
        "min-delay" => Objective::MinDelay {
            max_area: flag_value(args, "--max-area")
                .map(|v| v.parse().map_err(|e| format!("--max-area: {e}")))
                .transpose()?,
        },
        "min-area" => Objective::MinArea {
            max_latency: flag_value(args, "--max-latency")
                .map(|v| v.parse().map_err(|e| format!("--max-latency: {e}")))
                .transpose()?,
        },
        "balanced" => Objective::Balanced,
        other => return Err(format!("unknown objective `{other}`")),
    };
    let grade = match flag_value(args, "--grade").unwrap_or("standard") {
        "standard" => Grade::Standard,
        "fast" => Grade::Fast,
        "small" => Grade::Small,
        other => return Err(format!("unknown grade `{other}`")),
    };
    let outdir = flag_value(args, "-o").unwrap_or(".");
    std::fs::create_dir_all(outdir).map_err(|e| format!("creating {outdir}: {e}"))?;

    let lib = ModuleLibrary::with_grade(grade);
    let res = synthesize(&src, objective, &lib).map_err(|e| e.to_string())?;

    let write = |name: &str, contents: &str| -> Result<(), String> {
        let path = format!("{outdir}/{}.{name}", res.compiled.name);
        std::fs::write(&path, contents).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    };
    write("netlist.txt", &res.netlist)?;
    write(
        "v",
        &etpn::synth::verilog(&res.optimized, &lib, &res.compiled.name),
    )?;
    write("binding.txt", &res.binding.render())?;
    write("datapath.dot", &dot::datapath_dot(&res.optimized))?;
    write("control.dot", &dot::control_dot(&res.optimized))?;
    let mut report = String::new();
    report.push_str(&format!(
        "objective: {objective:?}\ninitial: {:?}\nfinal:   {:?}\nspeedup: {:.2}x  area: {:.2}x\n\ntransformations:\n",
        res.initial_cost,
        res.final_cost,
        res.optimizer.speedup(),
        res.optimizer.area_reduction()
    ));
    for t in &res.transform_log {
        report.push_str(&format!("  {t}\n"));
    }
    write("report.txt", &report)?;
    println!(
        "synthesis: area {}→{}, latency bound {}→{}, {} transformations",
        res.initial_cost.total_area,
        res.final_cost.total_area,
        res.initial_cost.latency_bound,
        res.final_cost.latency_bound,
        res.transform_log.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn parse_streams(args: &[String]) -> Result<Vec<(String, Vec<i64>)>, String> {
    let mut streams = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--set" {
            let spec = args.get(i + 1).ok_or("--set needs NAME=v1,v2,…")?;
            let (name, values) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad --set `{spec}`"))?;
            let values: Vec<i64> = values
                .split(',')
                .map(|v| v.trim().parse().map_err(|e| format!("--set {name}: {e}")))
                .collect::<Result<_, _>>()?;
            streams.push((name.to_string(), values));
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(streams)
}

/// Print how a run ended and map it onto the process exit code.
fn report_termination(trace: &etpn::sim::Trace, steps: u64) -> ExitCode {
    let reason = match trace.termination {
        Termination::Terminated => "all tokens consumed (Def. 3.1(6))".to_string(),
        Termination::Quiescent => "fixpoint: nothing can fire and no input advances".to_string(),
        Termination::Deadlock => {
            "deadlock: tokens remain but no transition is token-enabled".to_string()
        }
        Termination::StepLimit => format!("step budget of {steps} exhausted"),
        Termination::Budget => "wall-clock budget exhausted".to_string(),
    };
    println!(
        "termination: {:?} — {reason}\n{} steps, {} firings, {} external events",
        trace.termination,
        trace.steps,
        trace.firings,
        trace.event_count()
    );
    match trace.termination {
        Termination::StepLimit => {
            eprintln!(
                "etpnc: run hit the step limit (exit {EXIT_STEP_LIMIT}); raise --steps if unintended"
            );
            ExitCode::from(EXIT_STEP_LIMIT)
        }
        Termination::Deadlock => {
            eprintln!(
                "etpnc: control net deadlocked (exit {EXIT_DEADLOCK}); no step budget can unstick it"
            );
            ExitCode::from(EXIT_DEADLOCK)
        }
        Termination::Budget => {
            eprintln!(
                "etpnc: run cut short by the wall-clock budget (exit {EXIT_BUDGET}); raise --wall-ms if unintended"
            );
            ExitCode::from(EXIT_BUDGET)
        }
        Termination::Terminated | Termination::Quiescent => ExitCode::SUCCESS,
    }
}

fn cmd_run(args: &[String], use_interpreter: bool) -> Result<ExitCode, String> {
    let (_, src) = read_source(args)?;
    let streams = parse_streams(args)?;
    let steps: u64 = flag_value(args, "--steps")
        .map(|v| v.parse().map_err(|e| format!("--steps: {e}")))
        .transpose()?
        .unwrap_or(100_000);

    if use_interpreter {
        let _span = obs::span("interp.run");
        let prog = etpn::lang::parse_and_check(&src).map_err(|e| e.to_string())?;
        let out = etpn::workloads::interpret(&prog, &streams).map_err(|e| e.to_string())?;
        for name in &prog.outputs {
            println!("{name} = {:?}", out[name]);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let backend = parse_backend(args)?;
    let mut env = ScriptedEnv::new();
    for (name, values) in &streams {
        env = env.with_stream(name, values.iter().copied());
    }
    let jobs: Option<usize> = flag_value(args, "--jobs")
        .map(|v| v.parse().map_err(|e| format!("--jobs: {e}")))
        .transpose()?;
    if let Some(workers) = jobs {
        if flag_value(args, "--vcd").is_some() {
            return Err("--jobs batches don't capture waveforms; drop --vcd".into());
        }
        return run_fleet_battery(args, &d, env, steps, workers, backend);
    }
    let mut sim = Simulator::new(&d.etpn, env).with_backend(backend);
    for (name, v) in &d.reg_inits {
        sim = sim.init_register(name, *v);
    }
    if let Some(ms) = wall_budget(args)? {
        sim = sim.with_wall_budget(ms);
    }
    if args.iter().any(|a| a == "--strict") {
        sim = sim.strict_inputs();
    }
    let vcd_path = flag_value(args, "--vcd");
    if vcd_path.is_some() {
        sim = sim.watch_registers().watch_control();
    }
    let want_cov = want_coverage(args);
    if want_cov {
        sim = sim.with_coverage();
    }
    let record_path = flag_value(args, "--record");
    if record_path.is_some() {
        sim = sim.with_recorder(record_config(args)?);
    }
    let trace = sim.run(steps).map_err(|e| e.describe(&d.etpn))?;
    if let Some(path) = record_path {
        write_recording(&trace, path)?;
    }
    if let Some(path) = vcd_path {
        let vcd = etpn::sim::vcd::render(&d.etpn, &trace).ok_or("nothing captured for the VCD")?;
        std::fs::write(path, vcd).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if want_cov {
        // Statically-dead elements come out of the denominators: a hole in
        // this report is a genuine testing gap, never dead code.
        let (dead_p, dead_t) = etpn::lint::statically_dead(&d.etpn.ctl);
        let cov = etpn::sim::coverage_excluding(&d.etpn, &trace, &dead_p, &dead_t);
        let (ps, ts) = cov.percentages();
        println!(
            "coverage: {ps:.0}% states, {ts:.0}% transitions ({} dead excluded)",
            cov.dead_places + cov.dead_transitions
        );
        for (_, name) in &cov.unvisited_places {
            println!("  never activated: {name}");
        }
        for (_, name) in &cov.unfired_transitions {
            println!("  never fired:     {name}");
        }
        if let Some(db) = &trace.cov {
            print!("{}", full_report(&d.etpn, db, &dead_p, &dead_t).text());
        }
    }
    let code = report_termination(&trace, steps);
    let prog = etpn::lang::parse_and_check(&src).map_err(|e| e.to_string())?;
    for name in &prog.outputs {
        println!("{name} = {:?}", trace.values_on_named_output(&d.etpn, name));
    }
    Ok(code)
}

/// Parse `--every K` / `--ring N` into a recorder configuration
/// (full journal by default; bounded ring when `--ring` is given).
fn record_config(args: &[String]) -> Result<etpn::rec::RecordConfig, String> {
    let every: u64 = flag_value(args, "--every")
        .map(|v| v.parse().map_err(|e| format!("--every: {e}")))
        .transpose()?
        .unwrap_or(1024);
    Ok(match flag_value(args, "--ring") {
        Some(n) => {
            etpn::rec::RecordConfig::ring(n.parse().map_err(|e| format!("--ring: {e}"))?, every)
        }
        None => etpn::rec::RecordConfig::full(every),
    })
}

/// Serialise the recording a traced run carried and report what was kept.
fn write_recording(trace: &etpn::sim::Trace, path: &str) -> Result<(), String> {
    let rec = trace
        .recording
        .as_ref()
        .ok_or("run produced no recording")?;
    std::fs::write(path, rec.to_bytes()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {path} ({} journaled steps from step {}, {} checkpoints)",
        rec.len(),
        rec.first_step,
        rec.checkpoints.len()
    );
    Ok(())
}

/// Flags that take no value — everything else starting with `--` is
/// assumed to consume the following argument when scanning for
/// positional operands.
const BOOL_FLAGS: &[&str] = &[
    "--strict",
    "--stats",
    "--cov",
    "--coverage",
    "--control",
    "--heat",
    "--json",
    "--no-forensics",
];

/// The non-flag operands of a subcommand, in order, with flag values
/// (`--at 5`, `-o file`) skipped so they are not mistaken for files.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            i += if a.contains('=') || BOOL_FLAGS.contains(&a) {
                1
            } else {
                2
            };
        } else if a == "-o" {
            i += 2;
        } else {
            out.push(a);
            i += 1;
        }
    }
    out
}

/// Parse repeatable `--fault VERTEX:KIND@STEP` specs into concrete faults
/// on the named vertex's first output port. `stuck0`/`stuck1` are
/// permanent from STEP; `flipB` is a transient bit-B flip at STEP.
fn parse_fault_specs(
    args: &[String],
    g: &etpn::core::etpn::Etpn,
) -> Result<Vec<etpn::sim::Fault>, String> {
    use etpn::sim::{Fault, FaultKind, FaultSite, FaultWindow};
    let mut out = Vec::new();
    for spec in flag_values(args, "--fault") {
        let usage = || format!("bad --fault `{spec}`: expected VERTEX:KIND@STEP");
        let (site, rest) = spec.split_once(':').ok_or_else(usage)?;
        let (kind_s, step_s) = rest.split_once('@').ok_or_else(usage)?;
        let step: u64 = step_s
            .parse()
            .map_err(|e| format!("--fault {spec}: bad step: {e}"))?;
        let kind = match kind_s {
            "stuck0" => FaultKind::StuckAt0,
            "stuck1" => FaultKind::StuckAt1,
            s => {
                let bit = s
                    .strip_prefix("flip")
                    .and_then(|b| b.parse::<u32>().ok())
                    .ok_or_else(|| {
                        format!("--fault {spec}: unknown kind `{s}` (stuck0|stuck1|flipB)")
                    })?;
                FaultKind::BitFlip(bit)
            }
        };
        let v =
            g.dp.vertex_by_name(site)
                .ok_or_else(|| format!("--fault {spec}: no data-path vertex named `{site}`"))?;
        let port = *g
            .dp
            .vertex(v)
            .outputs
            .first()
            .ok_or_else(|| format!("--fault {spec}: vertex `{site}` has no output port"))?;
        let window = match kind {
            FaultKind::BitFlip(_) => FaultWindow::Transient(step),
            _ => FaultWindow::Permanent(step),
        };
        out.push(Fault {
            site: FaultSite::Port(port),
            kind,
            window,
        });
    }
    Ok(out)
}

/// `etpnc record`: run the design with the flight recorder on and write
/// the journal (with checkpoints and any injected faults) to disk.
fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let _span = obs::span("record.cmd");
    let (path, src) = read_source(args)?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let streams = parse_streams(args)?;
    let steps: u64 = flag_value(args, "--steps")
        .map(|v| v.parse().map_err(|e| format!("--steps: {e}")))
        .transpose()?
        .unwrap_or(100_000);
    let backend = parse_backend(args)?;
    let mut env = ScriptedEnv::new();
    for (name, values) in &streams {
        env = env.with_stream(name, values.iter().copied());
    }
    let mut sim = Simulator::new(&d.etpn, env).with_backend(backend);
    for (name, v) in &d.reg_inits {
        sim = sim.init_register(name, *v);
    }
    if args.iter().any(|a| a == "--strict") {
        sim = sim.strict_inputs();
    }
    if let Some(ms) = wall_budget(args)? {
        sim = sim.with_wall_budget(ms);
    }
    let faults = parse_fault_specs(args, &d.etpn)?;
    if !faults.is_empty() {
        println!("injecting {} fault(s)", faults.len());
        let plan = faults
            .into_iter()
            .fold(etpn::sim::FaultPlan::new(), etpn::sim::FaultPlan::with);
        sim = sim.with_faults(plan);
    }
    sim = sim.with_recorder(record_config(args)?);
    let trace = sim.run(steps).map_err(|e| e.describe(&d.etpn))?;
    let default_out = match path.strip_suffix(".hdl") {
        Some(stem) => format!("{stem}.etpnrec"),
        None => format!("{path}.etpnrec"),
    };
    let out = flag_value(args, "-o").map_or(default_out, str::to_string);
    write_recording(&trace, &out)?;
    Ok(report_termination(&trace, steps))
}

/// `etpnc replay`: restore the nearest retained checkpoint and re-apply
/// the journaled decisions up to `--at N` (default: the journal end).
fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    use etpn::rec::Recording;
    use etpn::sim::SimError;

    let _span = obs::span("replay.cmd");
    let pos = positionals(args);
    let [design_path, rec_path] = pos[..] else {
        return Err(
            "usage: etpnc replay <design.hdl> <recording> [--at N] [--backend B] [--vcd FILE]"
                .into(),
        );
    };
    let src =
        std::fs::read_to_string(design_path).map_err(|e| format!("reading {design_path}: {e}"))?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(rec_path).map_err(|e| format!("reading {rec_path}: {e}"))?;
    let rec = Recording::from_bytes(&bytes).map_err(|e| format!("{rec_path}: {e}"))?;
    let at: u64 = flag_value(args, "--at")
        .map(|v| v.parse().map_err(|e| format!("--at: {e}")))
        .transpose()?
        .unwrap_or_else(|| rec.end_step());
    let backend = parse_backend(args)?;
    let policy = etpn::sim::FiringPolicy::decode(rec.meta.policy_tag, rec.meta.policy_seed)
        .ok_or("recording carries an unknown firing-policy tag")?;
    let mut sim = Simulator::new(&d.etpn, etpn::sim::env_from_recording(&rec))
        .with_policy(policy)
        .with_backend(backend);
    let vcd_path = flag_value(args, "--vcd");
    if vcd_path.is_some() {
        sim = sim.watch_registers().watch_control();
    }
    let from = rec.checkpoints.first().map_or(rec.first_step, |c| c.step);
    let trace = match sim.replay_between(&rec, from, at) {
        Ok(t) => t,
        Err(e @ SimError::ReplayDivergence { .. }) => {
            eprintln!("etpnc: {}", e.describe(&d.etpn));
            return Ok(ExitCode::from(EXIT_DIVERGED));
        }
        Err(e) => return Err(e.describe(&d.etpn)),
    };
    println!(
        "replayed steps {from}..{at} of {rec_path} ({} journaled steps, {} checkpoints)",
        rec.len(),
        rec.checkpoints.len()
    );
    if let Some(path) = vcd_path {
        let vcd = etpn::sim::vcd::render(&d.etpn, &trace).ok_or("nothing captured for the VCD")?;
        std::fs::write(path, vcd).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    let code = if trace.termination == Termination::StepLimit && at < rec.end_step() {
        // Stopping at a requested mid-journal step is the point of
        // time travel, not a budget overrun.
        println!(
            "stopped at target step {at}: {} steps, {} firings, {} external events",
            trace.steps,
            trace.firings,
            trace.event_count()
        );
        ExitCode::SUCCESS
    } else {
        report_termination(&trace, at)
    };
    let prog = etpn::lang::parse_and_check(&src).map_err(|e| e.to_string())?;
    for name in &prog.outputs {
        println!("{name} = {:?}", trace.values_on_named_output(&d.etpn, name));
    }
    Ok(code)
}

/// `etpnc why`: bisect two recordings of the same design to the first
/// divergent step and print the causal slice around it.
fn cmd_why(args: &[String]) -> Result<ExitCode, String> {
    use etpn::rec::{DivergenceReport, Recording};

    let _span = obs::span("why.cmd");
    let pos = positionals(args);
    let [design_path, gold_path, faulty_path] = pos[..] else {
        return Err(
            "usage: etpnc why <design.hdl> <golden.etpnrec> <faulty.etpnrec> [--json] [--dot FILE]"
                .into(),
        );
    };
    let src =
        std::fs::read_to_string(design_path).map_err(|e| format!("reading {design_path}: {e}"))?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let load = |p: &str| -> Result<Recording, String> {
        let bytes = std::fs::read(p).map_err(|e| format!("reading {p}: {e}"))?;
        Recording::from_bytes(&bytes).map_err(|e| format!("{p}: {e}"))
    };
    let gold = load(gold_path)?;
    let faulty = load(faulty_path)?;
    match DivergenceReport::between(&d.etpn, &gold, &faulty).map_err(|e| e.to_string())? {
        None => {
            println!("recordings agree over their common journaled window");
            Ok(ExitCode::SUCCESS)
        }
        Some(rep) => {
            if args.iter().any(|a| a == "--json") {
                print!("{}", rep.json(&d.etpn));
            } else {
                print!("{}", rep.text(&d.etpn));
            }
            if let Some(path) = flag_value(args, "--dot") {
                std::fs::write(path, rep.dot_heat(&d.etpn))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote {path} (divergence heat overlay)");
            }
            eprintln!("etpnc: recordings diverge (exit {EXIT_DIVERGED})");
            Ok(ExitCode::from(EXIT_DIVERGED))
        }
    }
}

/// `run --jobs N`: batch the deterministic policy plus seeded sweeps of both
/// randomized policies through a fleet of N workers, check every sweep
/// against the deterministic reference (policy invariance), and report the
/// fleet's scheduling statistics.
fn run_fleet_battery(
    args: &[String],
    d: &etpn::synth::CompiledDesign,
    env: ScriptedEnv,
    steps: u64,
    workers: usize,
    backend: etpn::sim::Backend,
) -> Result<ExitCode, String> {
    use etpn::sim::{compare_structures, event_structure, FiringPolicy, Fleet, SimJob};

    let seeds: u64 = flag_value(args, "--seeds")
        .map(|v| v.parse().map_err(|e| format!("--seeds: {e}")))
        .transpose()?
        .unwrap_or(4);
    let mut policies = vec![FiringPolicy::MaximalStep];
    for seed in 0..seeds {
        policies.push(FiringPolicy::RandomMaximal { seed });
        policies.push(FiringPolicy::SingleRandom { seed });
    }
    let want_cov = want_coverage(args);
    let jobs: Vec<SimJob> = policies
        .iter()
        .map(|&policy| {
            let mut job = SimJob::new(&d.etpn, env.clone())
                .backend(backend)
                .with_policy(policy)
                .max_steps(steps);
            for (name, v) in &d.reg_inits {
                job = job.init_register(name, *v);
            }
            if want_cov {
                job = job.with_coverage();
            }
            job
        })
        .collect();

    let mut fleet = Fleet::new(workers);
    if let Some(deadline) = wall_budget(args)? {
        fleet = fleet.with_job_deadline(deadline);
    }
    let batch = fleet.run_batch(jobs);
    let mut results = batch.results.into_iter();
    let reference = results
        .next()
        .expect("battery is non-empty")
        .map_err(|e| format!("job 0 ({:?}): {}", policies[0], e.describe(&d.etpn)))?;
    let ref_structure = event_structure(&d.etpn, &reference);
    let mut divergent = 0usize;
    let mut budget_cut = 0usize;
    for (idx, (policy, result)) in policies[1..].iter().zip(results).enumerate() {
        let trace =
            result.map_err(|e| format!("job {} ({policy:?}): {}", idx + 1, e.describe(&d.etpn)))?;
        if trace.termination == etpn::sim::Termination::Budget {
            // A truncated run has a truncated event structure; comparing
            // it against the full reference would report a spurious
            // divergence, so surface the cut instead.
            budget_cut += 1;
            println!(
                "job {} ({policy:?}) cut short by the --wall-ms budget at step {}",
                idx + 1,
                trace.steps
            );
            continue;
        }
        let verdict = compare_structures(&ref_structure, &event_structure(&d.etpn, &trace));
        if let etpn::sim::EquivalenceVerdict::Different(diff) = verdict {
            divergent += 1;
            println!("policy {policy:?} diverges from MaximalStep: {diff}");
        }
    }
    let stats = &batch.stats;
    println!(
        "fleet: {} jobs on {} workers ({} stolen)",
        stats.jobs, stats.workers, stats.stolen,
    );
    if want_cov {
        if let Some(db) = &batch.coverage {
            let (dead_p, dead_t) = etpn::lint::statically_dead(&d.etpn.ctl);
            print!("{}", full_report(&d.etpn, db, &dead_p, &dead_t).text());
        }
    }
    let code = report_termination(&reference, steps);
    for v in d.etpn.dp.output_vertices() {
        let name = &d.etpn.dp.vertex(v).name;
        println!(
            "{name} = {:?}",
            reference.values_on_named_output(&d.etpn, name)
        );
    }
    if divergent == 0 {
        let compared = policies.len() - 1 - budget_cut;
        if budget_cut > 0 {
            println!(
                "{compared} policies agree with the deterministic reference ({budget_cut} cut by --wall-ms)"
            );
        } else {
            println!("all {compared} policies agree with the deterministic reference");
        }
        Ok(code)
    } else {
        Err(format!("{divergent} policies diverged"))
    }
}

/// Parse `--wall-ms N` into a [`std::time::Duration`].
fn wall_budget(args: &[String]) -> Result<Option<std::time::Duration>, String> {
    flag_value(args, "--wall-ms")
        .map(|v| {
            v.parse::<u64>()
                .map(std::time::Duration::from_millis)
                .map_err(|e| format!("--wall-ms: {e}"))
        })
        .transpose()
}

/// `etpnc fault`: run a full single-fault injection campaign against the
/// design — one golden run plus one faulty run per (site, kind) pair — and
/// report the masked / sdc / detected / hang partition, Def. 3.2 detector
/// status, and (optionally) a silent-corruption vulnerability map.
fn cmd_fault(args: &[String]) -> Result<ExitCode, String> {
    use etpn::sim::{run_campaign, CampaignConfig, FaultKind, SimJob};

    let _span = obs::span("fault.cmd");
    let (_, src) = read_source(args)?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let streams = parse_streams(args)?;
    let steps: u64 = flag_value(args, "--steps")
        .map(|v| v.parse().map_err(|e| format!("--steps: {e}")))
        .transpose()?
        .unwrap_or(100_000);
    let mut env = ScriptedEnv::new();
    for (name, values) in &streams {
        env = env.with_stream(name, values.iter().copied());
    }

    // Def. 3.2 status up front: the `detected` class leans on the runtime
    // monitors, which only mean something when the static analysis passes.
    let proper = check_properly_designed(&d.etpn);
    println!(
        "design `{}`: properly designed: {}",
        d.name,
        if proper.is_proper() { "yes" } else { "NO" }
    );

    let mut proto = SimJob::new(&d.etpn, env).max_steps(steps);
    for (name, v) in &d.reg_inits {
        proto = proto.init_register(name, *v);
    }
    let bit: u32 = flag_value(args, "--bit")
        .map(|v| v.parse().map_err(|e| format!("--bit: {e}")))
        .transpose()?
        .unwrap_or(0);
    let cfg = CampaignConfig {
        kinds: vec![
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::BitFlip(bit),
        ],
        include_control: args.iter().any(|a| a == "--control"),
        transient_step: flag_value(args, "--at")
            .map(|v| v.parse().map_err(|e| format!("--at: {e}")))
            .transpose()?
            .unwrap_or(1),
        workers: flag_value(args, "--jobs")
            .map(|v| v.parse().map_err(|e| format!("--jobs: {e}")))
            .transpose()?
            .unwrap_or(0),
        retry: etpn::sim::RetryPolicy::immediate(
            flag_value(args, "--retries")
                .map(|v| v.parse().map_err(|e| format!("--retries: {e}")))
                .transpose()?
                .unwrap_or(1),
        ),
        wall_budget: wall_budget(args)?,
        deadline_at: None,
        coverage: want_coverage(args),
        forensics: !args.iter().any(|a| a == "--no-forensics"),
    };
    let report = run_campaign(&proto, &cfg).map_err(|e| e.describe(&d.etpn))?;
    print!("{}", report.summary(&d.etpn));
    if let Some(db) = &report.coverage {
        let (dead_p, dead_t) = etpn::lint::statically_dead(&d.etpn.ctl);
        print!("{}", full_report(&d.etpn, db, &dead_p, &dead_t).text());
    }
    if let Some(path) = flag_value(args, "--dot") {
        std::fs::write(path, report.vulnerability_dot(&d.etpn))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path} (silent-corruption vulnerability map)");
    }
    if !report.is_total_partition() {
        return Err("campaign aborted: some faults were never classified".into());
    }
    if !report.golden_unchanged {
        return Err(
            "campaign corrupted the golden run — injection leaked into the clean path".into(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Parse `--backend`, defaulting to the interpreter reference engine.
/// (`etpnc run` keeps the reference as its default; the fleet API defaults
/// to the compiled engine, which the differential battery pins to it.)
fn parse_backend(args: &[String]) -> Result<etpn::sim::Backend, String> {
    match flag_values(args, "--backend").last().map(String::as_str) {
        None | Some("interp") => Ok(etpn::sim::Backend::Interp),
        Some("compiled") => Ok(etpn::sim::Backend::Compiled),
        Some("compiled-nodirty") => Ok(etpn::sim::Backend::CompiledNoDirty),
        Some(other) => Err(format!(
            "--backend {other}: expected interp, compiled or compiled-nodirty"
        )),
    }
}

/// `--cov` requests functional coverage; `--coverage` is the historical
/// alias from when `run` only knew place/transition hit counts.
fn want_coverage(args: &[String]) -> bool {
    args.iter().any(|a| a == "--cov" || a == "--coverage")
}

/// The five-dimension coverage report with `etpn-lint`'s statically-dead
/// fixpoint already folded out of the denominators.
fn full_report(
    g: &etpn::core::Etpn,
    db: &etpn::cov::CovDb,
    dead_p: &[etpn::core::PlaceId],
    dead_t: &[etpn::core::TransId],
) -> etpn::cov::CovReport {
    let dead = etpn::cov::StaticDead::from_ids(g, dead_p, dead_t);
    etpn::cov::report(g, db, &dead)
}

/// `etpnc cov`: drive the design to **coverage saturation** — keep drawing
/// policy seeds in batches until consecutive batches stop adding coverage —
/// then report, optionally gate (`--fail-under`, exit 6), and export
/// JSON / lcov / DOT renderings.
fn cmd_cov(args: &[String]) -> Result<ExitCode, String> {
    use etpn::sim::{FiringPolicy, Fleet, SaturationConfig, SimJob};

    let _span = obs::span("cov.cmd");
    let (_, src) = read_source(args)?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let streams = parse_streams(args)?;
    let steps: u64 = flag_value(args, "--steps")
        .map(|v| v.parse().map_err(|e| format!("--steps: {e}")))
        .transpose()?
        .unwrap_or(100_000);
    let mut env = ScriptedEnv::new();
    for (name, values) in &streams {
        env = env.with_stream(name, values.iter().copied());
    }
    let workers: usize = flag_value(args, "--jobs")
        .map(|v| v.parse().map_err(|e| format!("--jobs: {e}")))
        .transpose()?
        .unwrap_or(0);
    let mut cfg = SaturationConfig::default();
    if let Some(v) = flag_value(args, "--batch") {
        cfg.batch_size = v.parse().map_err(|e| format!("--batch: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--stable") {
        cfg.stable_batches = v.parse().map_err(|e| format!("--stable: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--max-batches") {
        cfg.max_batches = v.parse().map_err(|e| format!("--max-batches: {e}"))?;
    }
    let strict = args.iter().any(|a| a == "--strict");

    let fleet = Fleet::new(workers);
    let outcome = fleet.run_saturation(
        |seed| {
            // Seed 0 is the deterministic reference; odd/even seeds then
            // alternate the two randomized policies so the sweep explores
            // both maximal-step and interleaved schedules.
            let policy = match seed {
                0 => FiringPolicy::MaximalStep,
                s if s % 2 == 1 => FiringPolicy::RandomMaximal { seed: s },
                s => FiringPolicy::SingleRandom { seed: s },
            };
            let mut job = SimJob::new(&d.etpn, env.clone())
                .with_policy(policy)
                .max_steps(steps);
            for (name, v) in &d.reg_inits {
                job = job.init_register(name, *v);
            }
            if strict {
                job = job.strict_inputs();
            }
            job
        },
        cfg,
    );
    println!(
        "saturation: {} batches × {} seeds = {} jobs, {} failures — {}",
        outcome.batches,
        cfg.batch_size,
        outcome.jobs,
        outcome.failures,
        if outcome.saturated {
            format!("saturated after {} stable batches", cfg.stable_batches)
        } else {
            "NOT saturated (hit --max-batches)".to_string()
        }
    );
    let Some(db) = &outcome.coverage else {
        return Err("every job failed; no coverage collected".into());
    };
    let (dead_p, dead_t) = etpn::lint::statically_dead(&d.etpn.ctl);
    let rep = full_report(&d.etpn, db, &dead_p, &dead_t);
    print!("{}", rep.text());

    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, rep.json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--lcov") {
        let dead = etpn::cov::StaticDead::from_ids(&d.etpn, &dead_p, &dead_t);
        let design_path = args
            .iter()
            .find(|a| !a.starts_with('-'))
            .map_or("design.hdl", String::as_str);
        let line_of_place = |sp: etpn::core::PlaceId| {
            let span = d.src_map.place_span(sp);
            (!span.is_dummy()).then(|| etpn::lang::span::line_col(&src, span.start).0)
        };
        let line_of_trans = |t: etpn::core::TransId| {
            let span = d.src_map.trans_span(t);
            (!span.is_dummy()).then(|| etpn::lang::span::line_col(&src, span.start).0)
        };
        let text = etpn::cov::lcov(
            &d.etpn,
            db,
            &dead,
            design_path,
            &line_of_place,
            &line_of_trans,
        );
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--dot") {
        let heat = dot::ControlHeat {
            exit_counts: &db.place_exits,
            fire_counts: &db.trans_fired,
        };
        std::fs::write(path, dot::control_dot_heat(&d.etpn, &heat))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path} (coverage heat overlay)");
    }
    if let Some(pct) = flag_value(args, "--fail-under") {
        let pct: f64 = pct.parse().map_err(|e| format!("--fail-under: {e}"))?;
        if !rep.meets(pct) {
            eprintln!(
                "etpnc: coverage gate failed (exit {EXIT_COVERAGE}): places {:.1}%, transitions {:.1}% < {pct}%",
                rep.places.pct(),
                rep.transitions.pct()
            );
            return Ok(ExitCode::from(EXIT_COVERAGE));
        }
        println!(
            "coverage gate passed: places {:.1}%, transitions {:.1}% ≥ {pct}%",
            rep.places.pct(),
            rep.transitions.pct()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_dot(args: &[String]) -> Result<ExitCode, String> {
    let (_, src) = read_source(args)?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--heat") {
        // Heat needs an execution: simulate with the provided streams and
        // grade the control net by the observed activity.
        let streams = parse_streams(args)?;
        let steps: u64 = flag_value(args, "--steps")
            .map(|v| v.parse().map_err(|e| format!("--steps: {e}")))
            .transpose()?
            .unwrap_or(100_000);
        let mut env = ScriptedEnv::new();
        for (name, values) in &streams {
            env = env.with_stream(name, values.iter().copied());
        }
        let mut sim = Simulator::new(&d.etpn, env);
        for (name, v) in &d.reg_inits {
            sim = sim.init_register(name, *v);
        }
        let trace = sim.run(steps).map_err(|e| e.describe(&d.etpn))?;
        let heat = dot::ControlHeat {
            exit_counts: &trace.exit_counts,
            fire_counts: &trace.fire_counts,
        };
        println!("{}", dot::datapath_dot(&d.etpn));
        println!("{}", dot::control_dot_heat(&d.etpn, &heat));
        return Ok(ExitCode::SUCCESS);
    }
    println!("{}", dot::datapath_dot(&d.etpn));
    println!("{}", dot::control_dot(&d.etpn));
    Ok(ExitCode::SUCCESS)
}

/// `etpnc remote`: the thin client for a running `etpnd` instance.
///
/// ```text
/// etpnc remote --addr HOST:PORT register design.hdl
/// etpnc remote --addr HOST:PORT run    DESIGN [--set NAME=v1,v2…] [--steps N]
///                                             [--deadline-ms N] [--policy P --seed K]
/// etpnc remote --addr HOST:PORT check  DESIGN [--seeds K] [--jobs N] [--set …]
/// etpnc remote --addr HOST:PORT cov    DESIGN
/// etpnc remote --addr HOST:PORT lint   DESIGN
/// etpnc remote --addr HOST:PORT fault  DESIGN [--set …] [--steps N]
/// etpnc remote --addr HOST:PORT stats|health|designs
/// ```
///
/// `DESIGN` is a name or `0x…` fingerprint returned by `register`. The
/// exit code mirrors the local taxonomy: `0` for 2xx, `5` (budget) for
/// `408`, `1` otherwise with the server's error body on stderr.
fn cmd_remote(args: &[String]) -> Result<ExitCode, String> {
    use etpn::core::json::Json;

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7414");
    let timeout = std::time::Duration::from_millis(
        flag_value(args, "--timeout-ms")
            .map(|v| v.parse().map_err(|e| format!("--timeout-ms: {e}")))
            .transpose()?
            .unwrap_or(60_000u64),
    );
    // Positional args: everything that is neither a `--flag` nor the value
    // of one (every remote flag except `--stats` takes a value).
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += if args[i] == "--stats" { 1 } else { 2 };
        } else {
            positional.push(&args[i]);
            i += 1;
        }
    }
    let mut free = positional.into_iter();
    let verb = free
        .next()
        .ok_or("remote: missing verb (register|run|check|cov|lint|fault|stats|health|designs)")?;

    let send = |method: &str, path: &str, body: Option<String>| {
        etpn::serve::request(addr, method, path, body.as_deref(), timeout)
            .map_err(|e| format!("remote {addr}: {e}"))
    };

    let mut body_pairs: Vec<(&'static str, Json)> = Vec::new();
    let design_arg = free.next();
    let response = match verb.as_str() {
        "stats" => send("GET", "/stats", None)?,
        "health" => send("GET", "/healthz", None)?,
        "designs" => send("GET", "/v1/designs", None)?,
        "register" => {
            let path = design_arg.ok_or("remote register: missing design file")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let doc = Json::obj([("source", Json::Str(src))]);
            send("POST", "/v1/designs", Some(doc.pretty()))?
        }
        "run" | "check" | "cov" | "lint" | "fault" => {
            let design = design_arg.ok_or("remote: missing design name/fingerprint")?;
            body_pairs.push(("design", Json::Str(design.clone())));
            if let Some(steps) = flag_value(args, "--steps") {
                let n: i64 = steps.parse().map_err(|e| format!("--steps: {e}"))?;
                body_pairs.push(("steps", Json::Num(n)));
            }
            if let Some(ms) = flag_value(args, "--deadline-ms") {
                let n: i64 = ms.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
                body_pairs.push(("deadline_ms", Json::Num(n)));
            }
            if let Some(policy) = flag_value(args, "--policy") {
                body_pairs.push(("policy", Json::Str(policy.to_string())));
            }
            if let Some(seed) = flag_value(args, "--seed") {
                let n: i64 = seed.parse().map_err(|e| format!("--seed: {e}"))?;
                body_pairs.push(("seed", Json::Num(n)));
            }
            if let Some(seeds) = flag_value(args, "--seeds") {
                let n: i64 = seeds.parse().map_err(|e| format!("--seeds: {e}"))?;
                body_pairs.push(("seeds", Json::Num(n)));
            }
            if let Some(jobs) = flag_value(args, "--jobs") {
                let n: i64 = jobs.parse().map_err(|e| format!("--jobs: {e}"))?;
                body_pairs.push(("jobs", Json::Num(n)));
            }
            if let Some(backend) = flag_value(args, "--backend") {
                body_pairs.push(("backend", Json::Str(backend.to_string())));
            }
            let streams = parse_streams(args)?;
            if !streams.is_empty() {
                let inputs = Json::Obj(
                    streams
                        .into_iter()
                        .map(|(name, values)| {
                            (name, Json::Arr(values.into_iter().map(Json::Num).collect()))
                        })
                        .collect(),
                );
                body_pairs.push(("inputs", inputs));
            }
            let doc = Json::Obj(
                body_pairs
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            );
            send("POST", &format!("/v1/{verb}"), Some(doc.pretty()))?
        }
        other => return Err(format!("remote: unknown verb `{other}`")),
    };

    if (200..300).contains(&response.status) {
        print!("{}", response.body);
        Ok(ExitCode::SUCCESS)
    } else {
        eprint!("{}", response.body);
        if let Some(after) = response.header("retry-after") {
            eprintln!("etpnc: server busy, Retry-After: {after}s");
        }
        // The trace id is the handle the server's debug plane answers for
        // (`GET /v1/debug/requests`, `GET /v1/debug/trace/<id>`); print it
        // so a failed request can be chased server-side.
        if let Some(trace) = response.header("x-etpn-trace-id") {
            eprintln!("etpnc: trace id {trace}");
        }
        eprintln!("etpnc: remote returned HTTP {}", response.status);
        Ok(match response.status {
            408 => ExitCode::from(EXIT_BUDGET),
            _ => ExitCode::FAILURE,
        })
    }
}
