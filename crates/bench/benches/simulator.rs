//! Simulator throughput — functional interpretation speed and the cost of
//! enabling the timing model (this bounds how large fault campaigns can
//! get). Self-timed; see `sor_bench::bench_ns`.

use sor_bench::report;
use sor_sim::{FaultSpec, Machine, MachineConfig, TimingConfig};
use sor_workloads::{AdpcmDec, Workload};

fn main() {
    let module = AdpcmDec::default().build();
    let program = sor_regalloc::lower(&module, &Default::default()).unwrap();
    let golden = Machine::new(&program, &MachineConfig::default()).run(None);

    let ns = report("machine", "functional", || {
        Machine::new(&program, &MachineConfig::default()).run(None)
    });
    println!(
        "machine/functional: {:.1} M dynamic instructions/s",
        golden.dyn_instrs as f64 / ns * 1e3
    );

    report("machine", "with_timing", || {
        let cfg = MachineConfig {
            timing: Some(TimingConfig::default()),
            ..MachineConfig::default()
        };
        Machine::new(&program, &cfg).run(None)
    });

    let f = FaultSpec::new(golden.dyn_instrs / 2, 7, 13);
    report("machine", "fault_run", || {
        Machine::new(&program, &MachineConfig::default()).run(Some(f.into()))
    });
}
