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
//! run options (every simulating subcommand: run, record, fault, cov,
//!              dot --heat):
//!   --set NAME=v1,v2,…                        (input stream, repeatable;
//!                                              NAME must be an input)
//!   --steps N                                 (step budget per run,
//!                                              default 100000)
//!   --backend compiled|interp                 (step engine, default
//!                                              compiled: the event-driven
//!                                              engine, bit-identical to
//!                                              the `interp` reference — see
//!                                              tests/backend_differential.rs)
//!   --strict                                  (error when an input stream
//!                                              runs dry instead of reading ⊥)
//!   --wall-ms N                               (per-run wall-clock budget)
//!   --cov                                     (collect functional coverage and
//!                                              print the full report; fault
//!                                              merges it over the golden run
//!                                              and every faulty job, cov
//!                                              always collects it;
//!                                              --coverage is an alias)
//! run options (plus the run options above):
//!   --vcd FILE                                (dump register waveforms)
//!   --jobs N                                  (batch a policy battery over N
//!                                              fleet workers, report policy
//!                                              invariance; rejects --vcd and
//!                                              --record)
//!   --seeds K                                 (battery seeds, default 4)
//!   --record FILE                             (flight-record the run to FILE)
//!   --ring N                                  (with --record: ring-buffer
//!                                              mode retaining only the last N
//!                                              steps; default is the full
//!                                              journal)
//!   --every K                                 (with --record: checkpoint
//!                                              every K steps, default 1024)
//! record options (plus the run options, and --ring/--every as for
//!                 run --record):
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
//!   --backend compiled|interp                 (as for run, default compiled)
//!   --vcd FILE                                (dump the replayed register
//!                                              waveforms)
//! why options:
//!   --json                                    (machine-readable divergence
//!                                              report)
//!   --dot FILE                                (causal-slice heat overlay of
//!                                              the data path)
//! fault options (plus the run options):
//!   --jobs N                                  (fleet workers, default all CPUs)
//!   --retries N                               (per-job retry budget,
//!                                              default 1)
//!   --no-forensics                            (skip the per-fault divergence
//!                                              bisection against the golden
//!                                              recording)
//!   --control                                 (also inject token loss/dup
//!                                              faults into control places)
//!   --at N                                    (step for transient bit-flips,
//!                                              default 1)
//!   --bit B                                   (bit the flip faults invert,
//!                                              default 0)
//!   --dot FILE                                (write the silent-corruption
//!                                              vulnerability map as a heat
//!                                              DOT of the data path)
//! cov options (plus the run options):
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
//!   --heat                                    (simulate with the run options
//!                                              and colour the control net by
//!                                              activation/firing counts)
//! observability (every subcommand):
//!   --profile FILE.json                       (write a Chrome trace_event
//!                                              profile; open in
//!                                              chrome://tracing or Perfetto)
//!   --stats                                   (dump counters/gauges/
//!                                              histograms after the command)
//!
//! exit codes:
//!   0   success
//!   1   error (bad usage, compile failure, simulation fault, a
//!       recording that does not fit the design, …)
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
use etpn::sim::{Backend, RunSpec, ScriptedEnv, SimJob, Simulator, Termination};
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
/// recording was made against another environment, or determinism itself
/// broke). A recording of another design is refused with `1` instead.
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
    if let Some(path) = profile_path {
        let profile = obs::take_profile().expect("--profile sets Level::Trace");
        std::fs::write(path, profile.chrome_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} spans)", profile.spans.len());
    }
    if want_stats {
        print!("{}", obs::stats_text(obs::global()));
    }
    Ok(())
}

fn read_source(args: &[String]) -> Result<(String, String), String> {
    let path = *positionals(args).first().ok_or("missing design file")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok((path.to_string(), src))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The value of `flag` parsed as a `T`, if the flag is given.
fn parse_flag<T>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flag_value(args, flag)
        .map(|v| v.parse().map_err(|e| format!("{flag}: {e}")))
        .transpose()
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
        } else if report.diagnostics.iter().any(|d| d.code.id == "W390") {
            println!("design is not proven properly designed (Def. 3.2): safeness is unknown");
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
            max_area: parse_flag(args, "--max-area")?,
        },
        "min-area" => Objective::MinArea {
            max_latency: parse_flag(args, "--max-latency")?,
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

/// The run configuration every simulating subcommand shares, read from
/// `--set`, `--steps` (default 100 000), `--backend` (default compiled),
/// `--strict`, `--wall-ms` and `--cov`, with `d`'s register reset values.
fn run_spec(
    args: &[String],
    d: &etpn::synth::CompiledDesign,
) -> Result<(RunSpec, ScriptedEnv), String> {
    let mut env = ScriptedEnv::new();
    for (name, values) in parse_streams(args)? {
        if let Some(why) = etpn::sim::unknown_input(&d.etpn, &name) {
            return Err(format!("--set {name}: {why}"));
        }
        env = env.with_stream(&name, values);
    }
    let backend = match flag_values(args, "--backend").last() {
        None => Backend::default(),
        Some(name) => name
            .parse()
            .map_err(|()| format!("--backend {name}: expected compiled or interp"))?,
    };
    let spec = RunSpec {
        backend,
        max_steps: parse_flag(args, "--steps")?.unwrap_or(100_000),
        registers: d.reg_inits.clone(),
        strict_inputs: args.iter().any(|a| a == "--strict"),
        // `--coverage` is the historical alias from when `run` only knew
        // place/transition hit counts.
        coverage: args.iter().any(|a| a == "--cov" || a == "--coverage"),
        wall_budget: parse_flag(args, "--wall-ms")?.map(std::time::Duration::from_millis),
        ..RunSpec::default()
    };
    Ok((spec, env))
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
        "termination: {} — {reason}\n{} steps, {} firings, {} external events",
        trace.termination.name(),
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
    if use_interpreter {
        let _span = obs::span("interp.run");
        let prog = etpn::lang::parse_and_check(&src).map_err(|e| e.to_string())?;
        let out =
            etpn::workloads::interpret(&prog, &parse_streams(args)?).map_err(|e| e.to_string())?;
        for name in &prog.outputs {
            println!("{name} = {:?}", out[name]);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let (mut spec, env) = run_spec(args, &d)?;
    let vcd_path = flag_value(args, "--vcd");
    let record_path = flag_value(args, "--record");
    if let Some(workers) = parse_flag(args, "--jobs")? {
        if vcd_path.is_some() {
            return Err("--jobs batches don't capture waveforms; drop --vcd".into());
        }
        if record_path.is_some() {
            return Err("--jobs batches don't flight-record; drop --record".into());
        }
        return run_fleet_battery(args, &d, env, spec, workers);
    }
    if record_path.is_some() {
        spec.record = Some(record_config(args)?);
    }
    let mut sim = Simulator::from_spec(&d.etpn, env, &spec);
    if vcd_path.is_some() {
        sim = sim.watch_registers().watch_control();
    }
    let trace = sim.run(spec.max_steps).map_err(|e| e.describe(&d.etpn))?;
    if let Some(path) = record_path {
        write_recording(&trace, path)?;
    }
    if let Some(path) = vcd_path {
        let vcd = etpn::sim::vcd::render(&d.etpn, &trace).ok_or("nothing captured for the VCD")?;
        std::fs::write(path, vcd).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    print_coverage(&d.etpn, trace.cov.as_ref());
    let code = report_termination(&trace, spec.max_steps);
    let prog = etpn::lang::parse_and_check(&src).map_err(|e| e.to_string())?;
    for name in &prog.outputs {
        println!("{name} = {:?}", trace.values_on_named_output(&d.etpn, name));
    }
    Ok(code)
}

/// Print the coverage a `--cov` run or batch collected, if any.
fn print_coverage(g: &etpn::core::Etpn, db: Option<&etpn::cov::CovDb>) {
    if let Some(db) = db {
        print!("{}", full_report(g, db).text());
    }
}

/// Parse `--every K` / `--ring N` into a recorder configuration
/// (full journal by default; bounded ring when `--ring` is given).
fn record_config(args: &[String]) -> Result<etpn::rec::RecordConfig, String> {
    let every = parse_flag(args, "--every")?.unwrap_or(1024);
    Ok(match parse_flag(args, "--ring")? {
        Some(n) => etpn::rec::RecordConfig::ring(n, every),
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
    let (mut spec, env) = run_spec(args, &d)?;
    let faults = parse_fault_specs(args, &d.etpn)?;
    if !faults.is_empty() {
        println!("injecting {} fault(s)", faults.len());
        let plan = faults
            .into_iter()
            .fold(etpn::sim::FaultPlan::new(), etpn::sim::FaultPlan::with);
        spec.faults = Some(plan);
    }
    spec.record = Some(record_config(args)?);
    let trace = Simulator::from_spec(&d.etpn, env, &spec)
        .run(spec.max_steps)
        .map_err(|e| e.describe(&d.etpn))?;
    let default_out = match path.strip_suffix(".hdl") {
        Some(stem) => format!("{stem}.etpnrec"),
        None => format!("{path}.etpnrec"),
    };
    let out = flag_value(args, "-o").map_or(default_out, str::to_string);
    write_recording(&trace, &out)?;
    print_coverage(&d.etpn, trace.cov.as_ref());
    Ok(report_termination(&trace, spec.max_steps))
}

/// `etpnc replay`: restore the nearest retained checkpoint and re-apply
/// the journaled decisions up to `--at N` (default: the journal end).
fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    use etpn::rec::Recording;
    use etpn::sim::SimError;

    let _span = obs::span("replay.cmd");
    let pos = positionals(args);
    let [_, rec_path] = pos[..] else {
        return Err(
            "usage: etpnc replay <design.hdl> <recording> [--at N] [--backend B] [--vcd FILE]"
                .into(),
        );
    };
    let (_, src) = read_source(args)?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(rec_path).map_err(|e| format!("reading {rec_path}: {e}"))?;
    let rec = Recording::from_bytes(&bytes).map_err(|e| format!("{rec_path}: {e}"))?;
    let at = parse_flag(args, "--at")?.unwrap_or_else(|| rec.end_step());
    // The recording fixes everything but the step engine.
    let (spec, _) = run_spec(args, &d)?;
    let policy = etpn::sim::FiringPolicy::decode(rec.meta.policy_tag, rec.meta.policy_seed)
        .ok_or("recording carries an unknown firing-policy tag")?;
    let spec = RunSpec {
        backend: spec.backend,
        policy,
        ..RunSpec::default()
    };
    let mut sim = Simulator::from_spec(&d.etpn, etpn::sim::env_from_recording(&rec), &spec);
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
    let [_, gold_path, faulty_path] = pos[..] else {
        return Err(
            "usage: etpnc why <design.hdl> <golden.etpnrec> <faulty.etpnrec> [--json] [--dot FILE]"
                .into(),
        );
    };
    let (_, src) = read_source(args)?;
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
    spec: RunSpec,
    workers: usize,
) -> Result<ExitCode, String> {
    use etpn::sim::{battery, BatteryGroup, FiringPolicy, Fleet};

    let seeds = parse_flag(args, "--seeds")?.unwrap_or(4);
    let max_steps = spec.max_steps;
    let group = BatteryGroup::policies(&SimJob::from_spec(&d.etpn, env, spec), seeds);
    let run = battery(&Fleet::new(workers), vec![group]);
    let v = run.verdicts.into_iter().next().expect("one group");
    let failed = |job: usize, e: etpn::sim::SimError| {
        let policy = FiringPolicy::battery(seeds)[job];
        format!("job {job} ({policy:?}): {}", e.describe(&d.etpn))
    };
    let reference = v.reference.map_err(|e| failed(0, e))?;
    if let Some((job, e)) = v.first_error {
        return Err(format!(
            "{} ({} of the compared runs failed)",
            failed(job, e),
            v.failed
        ));
    }
    println!(
        "fleet: {} jobs on {} workers ({} stolen)",
        run.stats.jobs, run.stats.workers, run.stats.stolen,
    );
    print_coverage(&d.etpn, run.coverage.as_ref());
    let code = report_termination(&reference, max_steps);
    for o in d.etpn.dp.output_vertices() {
        let name = &d.etpn.dp.vertex(o).name;
        println!(
            "{name} = {:?}",
            reference.values_on_named_output(&d.etpn, name)
        );
    }
    if v.compared == 0 && v.cut > 0 {
        println!(
            "no policy compared: {} runs are not comparable with the deterministic reference ({})",
            v.cut,
            reference.termination.name()
        );
        return Ok(code);
    }
    let (all, cut) = match v.cut {
        0 => ("all ", String::new()),
        n => ("", format!(" ({n} not compared: cut by a budget)")),
    };
    match v.witness {
        None => {
            println!(
                "{all}{} policies agree with the deterministic reference{cut}",
                v.compared
            );
            Ok(code)
        }
        Some(w) => {
            println!("{}", w.render(&d.etpn));
            Err(format!(
                "{} of {} compared policies diverged{cut}",
                v.divergent, v.compared
            ))
        }
    }
}

/// `etpnc fault`: run a full single-fault injection campaign against the
/// design — one golden run plus one faulty run per (site, kind) pair — and
/// report the masked / sdc / detected / hang partition, Def. 3.2 detector
/// status, and (optionally) a silent-corruption vulnerability map.
fn cmd_fault(args: &[String]) -> Result<ExitCode, String> {
    use etpn::sim::{run_campaign, CampaignConfig, FaultKind, Fleet, RetryPolicy};

    let _span = obs::span("fault.cmd");
    let (_, src) = read_source(args)?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let (spec, env) = run_spec(args, &d)?;

    // Def. 3.2 status up front: the `detected` class leans on the runtime
    // monitors, which only mean something when the static analysis passes.
    let proper = check_properly_designed(&d.etpn);
    println!(
        "design `{}`: properly designed: {}",
        d.name,
        if proper.is_proper() { "yes" } else { "NO" }
    );

    let proto = SimJob::from_spec(&d.etpn, env, spec);
    let fleet = Fleet::new(parse_flag(args, "--jobs")?.unwrap_or(0)).with_retry_policy(
        RetryPolicy::immediate(parse_flag(args, "--retries")?.unwrap_or(1)),
    );
    let cfg = CampaignConfig {
        kinds: vec![
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::BitFlip(parse_flag(args, "--bit")?.unwrap_or(0)),
        ],
        include_control: args.iter().any(|a| a == "--control"),
        transient_step: parse_flag(args, "--at")?.unwrap_or(1),
        forensics: !args.iter().any(|a| a == "--no-forensics"),
    };
    let report = run_campaign(&proto, &cfg, &fleet).map_err(|e| e.describe(&d.etpn))?;
    print!("{}", report.summary(&d.etpn));
    print_coverage(&d.etpn, report.coverage.as_ref());
    if !report.classified() {
        eprintln!(
            "etpnc: the golden run was cut by the wall-clock budget (exit {EXIT_BUDGET}); raise --wall-ms if unintended"
        );
        return Ok(ExitCode::from(EXIT_BUDGET));
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

/// The five-dimension coverage report with `etpn-lint`'s statically-dead
/// fixpoint folded out of the denominators: a hole in it is a genuine
/// testing gap, never dead code.
fn full_report(g: &etpn::core::Etpn, db: &etpn::cov::CovDb) -> etpn::cov::CovReport {
    let (dead_p, dead_t) = etpn::lint::statically_dead(&g.ctl);
    etpn::cov::report(g, db, &etpn::cov::StaticDead::from_ids(g, &dead_p, &dead_t))
}

/// `etpnc cov`: drive the design to **coverage saturation** — keep drawing
/// policy seeds in batches until consecutive batches stop adding coverage —
/// then report, optionally gate (`--fail-under`, exit 6), and export
/// JSON / lcov / DOT renderings.
fn cmd_cov(args: &[String]) -> Result<ExitCode, String> {
    use etpn::sim::{Fleet, SaturationConfig};

    let _span = obs::span("cov.cmd");
    let (design_path, src) = read_source(args)?;
    let d = etpn::synth::compile_source(&src).map_err(|e| e.to_string())?;
    let (spec, env) = run_spec(args, &d)?;
    let defaults = SaturationConfig::default();
    let cfg = SaturationConfig {
        batch_size: parse_flag(args, "--batch")?.unwrap_or(defaults.batch_size),
        stable_batches: parse_flag(args, "--stable")?.unwrap_or(defaults.stable_batches),
        max_batches: parse_flag(args, "--max-batches")?.unwrap_or(defaults.max_batches),
    };

    let fleet = Fleet::new(parse_flag(args, "--jobs")?.unwrap_or(0));
    let outcome = fleet.run_saturation(SimJob::from_spec(&d.etpn, env, spec), cfg);
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
    let rep = full_report(&d.etpn, db);
    print!("{}", rep.text());

    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, rep.json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--lcov") {
        let (dead_p, dead_t) = etpn::lint::statically_dead(&d.etpn.ctl);
        let dead = etpn::cov::StaticDead::from_ids(&d.etpn, &dead_p, &dead_t);
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
            &design_path,
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
    if let Some(pct) = parse_flag::<f64>(args, "--fail-under")? {
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
        let (spec, env) = run_spec(args, &d)?;
        let trace = Simulator::from_spec(&d.etpn, env, &spec)
            .run(spec.max_steps)
            .map_err(|e| e.describe(&d.etpn))?;
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
/// `run`, `check` and `fault` also forward `--backend compiled|interp`.
///
/// `DESIGN` is a name or `0x…` fingerprint returned by `register`. The
/// exit code mirrors the local taxonomy: `0` for 2xx, `5` (budget) for
/// `408`, `1` otherwise with the server's error body on stderr.
fn cmd_remote(args: &[String]) -> Result<ExitCode, String> {
    use etpn::core::json::Json;

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7414");
    let timeout =
        std::time::Duration::from_millis(parse_flag(args, "--timeout-ms")?.unwrap_or(60_000));
    let mut free = positionals(args).into_iter();
    let verb = free
        .next()
        .ok_or("remote: missing verb (register|run|check|cov|lint|fault|stats|health|designs)")?;

    let send = |method: &str, path: &str, body: Option<String>| {
        etpn::serve::request(addr, method, path, body.as_deref(), timeout)
            .map_err(|e| format!("remote {addr}: {e}"))
    };

    let mut body_pairs: Vec<(&'static str, Json)> = Vec::new();
    let design_arg = free.next();
    let response = match verb {
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
            body_pairs.push(("design", Json::Str(design.to_string())));
            for (flag, field) in [
                ("--steps", "steps"),
                ("--deadline-ms", "deadline_ms"),
                ("--seed", "seed"),
                ("--seeds", "seeds"),
                ("--jobs", "jobs"),
            ] {
                if let Some(n) = parse_flag(args, flag)? {
                    body_pairs.push((field, Json::Num(n)));
                }
            }
            if let Some(policy) = flag_value(args, "--policy") {
                body_pairs.push(("policy", Json::Str(policy.to_string())));
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
