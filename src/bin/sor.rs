//! `sor` — command-line driver for the software-only-recovery toolchain.
//!
//! Operates on textual IR modules (the format printed by `Module`'s
//! `Display` impl; see `examples/sum.sor`):
//!
//! ```text
//! sor run <file> [--technique NAME] [--timing]
//! sor protect <file> --technique NAME        # transformed IR to stdout
//! sor campaign <file> [--technique NAME] [--runs N] [--seed S]
//! sor coverage <file>                        # TRUMP applicability report
//! sor techniques                             # list technique names
//! ```

use software_only_recovery::prelude::*;
use software_only_recovery::recovery::{trump_protected_set, Technique};
use software_only_recovery::stats::OutcomeCounts;
use sor_rng::SmallRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "protect" => cmd_protect(&args),
        "campaign" => cmd_campaign(&args),
        "coverage" => cmd_coverage(&args),
        "disasm" => cmd_disasm(&args),
        "techniques" => {
            for t in Technique::ALL {
                println!("{:<14} ({})", technique_key(t), t);
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sor run <file.sor> [--technique NAME] [--timing]
  sor protect <file.sor> --technique NAME
  sor campaign <file.sor> [--technique NAME] [--runs N] [--seed S]
  sor coverage <file.sor>
  sor disasm <file.sor> [--technique NAME]
  sor techniques";

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn technique_key(t: Technique) -> &'static str {
    match t {
        Technique::Noft => "noft",
        Technique::Mask => "mask",
        Technique::Trump => "trump",
        Technique::TrumpMask => "trump-mask",
        Technique::TrumpSwiftR => "trump-swiftr",
        Technique::SwiftR => "swiftr",
        Technique::Swift => "swift",
        Technique::Cfcss => "cfcss",
        Technique::Ceda => "ceda",
        Technique::SwiftRCfcss => "swiftr-cfcss",
    }
}

fn parse_technique(args: &[String]) -> Result<Technique, String> {
    let Some(name) = flag_value(args, "--technique") else {
        return Ok(Technique::Noft);
    };
    Technique::ALL
        .into_iter()
        .find(|t| technique_key(*t) == name)
        .ok_or_else(|| {
            format!(
                "unknown technique '{name}' (try: {})",
                Technique::ALL.map(technique_key).join(", ")
            )
        })
}

fn load_module(args: &[String]) -> Result<Module, String> {
    let path = args
        .get(1)
        .filter(|p| !p.starts_with("--"))
        .ok_or("missing input file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let module = sor_ir::parse_module(&text).map_err(|e| e.to_string())?;
    sor_ir::verify(&module).map_err(|e| e.to_string())?;
    Ok(module)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let module = load_module(args)?;
    let technique = parse_technique(args)?;
    let transformed = technique.apply(&module);
    let program = lower(&transformed, &LowerConfig::default()).map_err(|e| e.to_string())?;
    let cfg = MachineConfig {
        timing: has_flag(args, "--timing").then(sor_sim::TimingConfig::default),
        ..MachineConfig::default()
    };
    let r = Machine::new(&program, &cfg).run(None);
    println!("status        : {:?}", r.status);
    for (i, v) in r.output.iter().enumerate() {
        println!("out[{i:>3}]      : {v} ({:#x})", v);
    }
    println!("dyn instrs    : {}", r.dyn_instrs);
    if let Some(c) = r.cycles {
        println!(
            "cycles        : {c} (ipc {:.2})",
            r.dyn_instrs as f64 / c.max(1) as f64
        );
        println!(
            "L1-D          : {} hits / {} misses",
            r.cache_hits.unwrap_or(0),
            r.cache_misses.unwrap_or(0)
        );
    }
    Ok(())
}

fn cmd_protect(args: &[String]) -> Result<(), String> {
    let module = load_module(args)?;
    let technique = parse_technique(args)?;
    let transformed = technique.apply(&module);
    sor_ir::verify(&transformed).map_err(|e| e.to_string())?;
    print!("{transformed}");
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let module = load_module(args)?;
    let technique = parse_technique(args)?;
    let runs: u64 = flag_value(args, "--runs")
        .map(|v| v.parse().map_err(|_| "--runs expects a number"))
        .transpose()?
        .unwrap_or(250);
    let seed: u64 = flag_value(args, "--seed")
        .map(|v| v.parse().map_err(|_| "--seed expects a number"))
        .transpose()?
        .unwrap_or(0x5EED);

    let transformed = technique.apply(&module);
    let program = lower(&transformed, &LowerConfig::default()).map_err(|e| e.to_string())?;
    let runner = sor_sim::Runner::new(&program, &MachineConfig::default());
    let golden_len = runner.golden().dyn_instrs;

    // The paper's distribution: uniform (dynamic instruction, register,
    // bit), drawn by the campaign sampler and replayed through one reused
    // machine arena.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut replayer = runner.replayer();
    let mut counts = OutcomeCounts::default();
    for _ in 0..runs {
        let (o, res) = replayer.run_fault(FaultSpec::sample(&mut rng, golden_len));
        counts.record(o, res.probes.vote_repairs + res.probes.trump_recovers);
    }
    println!("technique     : {technique}");
    println!("golden instrs : {golden_len}");
    println!("injections    : {}", counts.total());
    println!("unACE         : {:>6.2}%", counts.pct_unace());
    println!("SDC (+hangs)  : {:>6.2}%", counts.pct_sdc());
    println!("SEGV (+DUE)   : {:>6.2}%", counts.pct_segv());
    println!("recoveries    : {}", counts.recoveries);
    println!("early exits   : {}", replayer.early_exits());
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let module = load_module(args)?;
    let technique = parse_technique(args)?;
    let transformed = technique.apply(&module);
    let program = lower(&transformed, &LowerConfig::default()).map_err(|e| e.to_string())?;
    print!("{program}");
    Ok(())
}

fn cmd_coverage(args: &[String]) -> Result<(), String> {
    let module = load_module(args)?;
    for func in &module.funcs {
        let pure = trump_protected_set(func, false);
        let hybrid = trump_protected_set(func, true);
        println!(
            "fn {:<20} {:>4} int values | TRUMP pure {:>4} | hybrid {:>4}",
            func.name,
            func.int_vreg_count(),
            pure.len(),
            hybrid.len()
        );
    }
    Ok(())
}
