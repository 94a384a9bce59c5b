//! Integration tests for the `sor` command-line driver.

use std::process::Command;

fn sor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sor"))
}

#[test]
fn run_executes_a_textual_module() {
    let out = sor()
        .args(["run", "examples/sum.sor"])
        .output()
        .expect("sor runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5050"), "{stdout}");
    assert!(stdout.contains("Completed"), "{stdout}");
}

#[test]
fn protect_round_trips_through_the_cli() {
    let out = sor()
        .args(["protect", "examples/sum.sor", "--technique", "swiftr"])
        .output()
        .expect("sor runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The emitted module must itself parse, verify and still sum to 5050.
    let module = sor_ir::parse_module(&text).expect("CLI output parses");
    sor_ir::verify(&module).expect("CLI output verifies");
    let p = sor_regalloc::lower(&module, &Default::default()).unwrap();
    let r = sor_sim::Machine::new(&p, &Default::default()).run(None);
    assert_eq!(r.output, vec![5050]);
}

#[test]
fn campaign_reports_percentages() {
    let out = sor()
        .args([
            "campaign",
            "examples/sum.sor",
            "--technique",
            "swiftr",
            "--runs",
            "60",
        ])
        .output()
        .expect("sor runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unACE"), "{stdout}");
    assert!(stdout.contains("injections    : 60"), "{stdout}");
    assert!(stdout.contains("early exits   : rejoined="), "{stdout}");
}

#[test]
fn unknown_technique_is_a_clean_error() {
    let out = sor()
        .args(["run", "examples/sum.sor", "--technique", "magic"])
        .output()
        .expect("sor runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown technique"), "{stderr}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = sor()
        .args(["run", "no_such.sor"])
        .output()
        .expect("sor runs");
    assert!(!out.status.success());
}
