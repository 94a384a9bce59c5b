//! Golden-run management and fault-run classification.

use crate::checkpoint::CheckpointStore;
use crate::decode::DecodedProg;
use crate::exec::{EarlyExit, Golden, Untimed};
use crate::fault::{FaultSpec, GenFault};
use crate::machine::{Machine, MachineConfig, RunResult};
use crate::outcome::{classify, Outcome};
use crate::trace::TraceSink;
use sor_ir::ProtectionRole;
use std::sync::Arc;

/// One fault injection annotated with its static provenance: which static
/// instruction the fault landed on and what protection role that
/// instruction plays. The unit of aggregation for per-site vulnerability
/// triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenFaultRecord {
    /// The injected fault (effect + dynamic slot).
    pub fault: GenFault,
    /// Classified outcome of the run.
    pub outcome: Outcome,
    /// Static instruction (program counter) about to execute when the
    /// fault fired; `None` when the fault point was past the end of the
    /// run, so the fault never fired.
    pub static_inst: Option<usize>,
    /// Protection role of that instruction ([`ProtectionRole::Original`]
    /// for images lowered from untagged modules or unfired faults).
    pub role: ProtectionRole,
}

impl GenFaultRecord {
    /// The dynamic instruction slot the fault was armed for.
    pub fn dynamic_slot(&self) -> u64 {
        self.fault.at_instr
    }
}

/// Auto-sizes the checkpoint interval from the golden run length: 64
/// checkpoints across the run, clamped so tiny programs don't checkpoint
/// every instruction and huge ones don't starve replay of restore points.
fn auto_interval(golden_len: u64) -> u64 {
    (golden_len / 64).clamp(128, 1 << 20)
}

/// Owns a program's golden run and classifies fault runs against it.
///
/// Fault runs use **checkpoint-and-replay**: the golden run is recorded as
/// a sequence of architectural checkpoints (see [`crate::Checkpoint`]), and
/// each injected run restores the nearest checkpoint at or before its fault
/// point instead of re-executing the deterministic prefix from instruction
/// 0. Replayed runs are bit-identical to from-scratch execution. Set
/// [`MachineConfig::checkpoint_interval`] to `0` to opt out.
///
/// ```
/// use sor_ir::{ModuleBuilder, Operand, Width};
/// use sor_sim::{FaultSpec, MachineConfig, Outcome, Runner};
///
/// let mut mb = ModuleBuilder::new("demo");
/// let mut f = mb.function("main");
/// let x = f.movi(1);
/// let y = f.add(Width::W64, x, 1i64);
/// f.emit(Operand::reg(y));
/// f.ret(&[]);
/// let id = f.finish();
/// let module = mb.finish(id);
/// let program = sor_regalloc::lower(&module, &Default::default()).unwrap();
///
/// let runner = Runner::new(&program, &MachineConfig::default());
/// assert_eq!(runner.golden().output, vec![2]);
/// // A fault in an unused register is unACE.
/// let (outcome, _) = runner.run_fault(FaultSpec::new(0, 27, 55));
/// assert_eq!(outcome, Outcome::UnAce);
/// ```
#[derive(Debug)]
pub struct Runner<'p> {
    pub(crate) prog: &'p sor_ir::Program,
    cfg: MachineConfig,
    pub(crate) golden: RunResult,
    pub(crate) ckpts: CheckpointStore,
    /// Shared predecoded image, `Some` iff the config selected a
    /// span-based engine (the default jit, or decoded): translated once
    /// here (or supplied by the caller) and shared by every machine this
    /// runner creates.
    decoded: Option<Arc<DecodedProg>>,
    /// Shared native image, `Some` iff the config selected the jit engine
    /// (the default) and compilation succeeded; otherwise machines
    /// degrade to the decoded interpreter.
    jit: Option<Arc<crate::JitProg>>,
}

impl<'p> Runner<'p> {
    /// Executes the golden (fault-free) run, records its checkpoints, and
    /// prepares for injections.
    ///
    /// Fault runs get a fuel budget of 10x the golden dynamic instruction
    /// count (plus slack), so runaway loops terminate as [`Outcome::Hang`].
    ///
    /// # Panics
    ///
    /// Panics if the golden run itself does not complete — a program that
    /// faults without any injected fault is a workload bug.
    pub fn new(prog: &'p sor_ir::Program, cfg: &MachineConfig) -> Self {
        Self::with_images(prog, cfg, None, None)
    }

    /// Like [`Runner::new`], but reuses already-built images (the harness
    /// artifact store memoizes one predecoded and one compiled image per
    /// lowered program) instead of translating again. Both are ignored
    /// under the legacy core (a test oracle); `jit` is ignored under
    /// [`crate::ExecEngine::Decoded`]. A `None` image the engine needs is built
    /// here; under the jit engine (the default) a failed native compile
    /// degrades to the decoded interpreter with a one-time warning.
    ///
    /// # Panics
    ///
    /// Panics if a supplied image was not produced from `prog`, or if the
    /// golden run does not complete (see [`Runner::new`]).
    pub fn with_images(
        prog: &'p sor_ir::Program,
        cfg: &MachineConfig,
        decoded: Option<Arc<DecodedProg>>,
        jit: Option<Arc<crate::JitProg>>,
    ) -> Self {
        let (decoded, jit) = cfg.engine.images(prog, decoded, jit);
        // Checkpointing is functional-only, and the auto interval needs the
        // golden run's length, which an earlier runner over the same image
        // may have measured. When the interval is known up front the
        // recording run is the golden run; otherwise the golden run (with
        // the caller's timing config) comes first.
        let functional = MachineConfig {
            timing: None,
            ..cfg.clone()
        };
        let machine = |cfg: &MachineConfig| match &decoded {
            Some(d) => Machine::with_images(prog, cfg, Arc::clone(d), jit.clone()),
            _ => Machine::new(prog, cfg),
        };
        let record = |interval: u64| {
            let mut m = machine(&functional);
            m.enable_reuse();
            m.run_golden_with_checkpoints(interval)
        };
        let interval = |golden_len: Option<u64>| match cfg.checkpoint_interval {
            MachineConfig::AUTO_CHECKPOINT => golden_len.map(auto_interval),
            k => Some(k),
        };
        let known_len = decoded.as_ref().and_then(|d| d.golden_len.get().copied());
        let (golden, cps) = match interval(known_len) {
            Some(0) => (machine(cfg).run(None), Vec::new()),
            Some(k) if cfg.timing.is_none() => record(k),
            _ => {
                let golden = machine(cfg).run(None);
                let k = interval(Some(golden.dyn_instrs)).expect("known from the length");
                (golden, record(k).1)
            }
        };
        assert_eq!(
            golden.status,
            crate::machine::RunStatus::Completed,
            "golden run of '{}' did not complete: {:?}",
            prog.name,
            golden.status
        );
        if let Some(d) = &decoded {
            let _ = d.golden_len.set(golden.dyn_instrs);
        }
        let fault_cfg = MachineConfig {
            fuel: golden.dyn_instrs.saturating_mul(10).saturating_add(100_000),
            timing: None,
            checkpoint_interval: cfg.checkpoint_interval,
            engine: cfg.engine,
        };
        Runner {
            prog,
            cfg: fault_cfg,
            golden,
            ckpts: CheckpointStore::new(cps),
            decoded,
            jit,
        }
    }

    /// The shared predecoded image, `Some` iff a span engine (the default
    /// jit, or decoded) is selected.
    pub fn decoded(&self) -> Option<&Arc<DecodedProg>> {
        self.decoded.as_ref()
    }

    /// The shared native image, `Some` iff the jit engine (the default) is
    /// selected and compilation succeeded.
    pub fn jit(&self) -> Option<&Arc<crate::JitProg>> {
        self.jit.as_ref()
    }

    /// Creates a machine wired to this runner's fault config and shared
    /// images (when a span engine is selected).
    pub(crate) fn fault_machine(&self) -> Machine<'p> {
        match &self.decoded {
            Some(d) => Machine::with_images(self.prog, &self.cfg, Arc::clone(d), self.jit.clone()),
            None => Machine::new(self.prog, &self.cfg),
        }
    }

    /// Annotates one classified run of `fault` with its provenance.
    pub(crate) fn record(
        &self,
        fault: GenFault,
        outcome: Outcome,
        result: &RunResult,
    ) -> GenFaultRecord {
        GenFaultRecord {
            fault,
            outcome,
            static_inst: result.fault_pc,
            role: result
                .fault_pc
                .map(|pc| self.prog.role_of(pc))
                .unwrap_or_default(),
        }
    }

    /// The golden run.
    pub fn golden(&self) -> &RunResult {
        &self.golden
    }

    /// The recorded golden-run checkpoints (empty when disabled).
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.ckpts
    }

    /// Re-executes the golden run with def-use tracing, feeding one event
    /// per counted dynamic instruction to `sink` (see
    /// [`crate::TraceSink`]), and asserts the traced run is bit-identical
    /// to the recorded golden run.
    pub fn trace_golden(&self, sink: &mut dyn TraceSink) -> RunResult {
        let traced = self.fault_machine().run_golden_traced(sink);
        assert_eq!(
            (traced.status, traced.dyn_instrs, &traced.output),
            (
                self.golden.status,
                self.golden.dyn_instrs,
                &self.golden.output
            ),
            "golden re-execution diverged while tracing"
        );
        traced
    }

    /// The integer registers statically live where a fault armed for each
    /// golden slot fires, one mask per slot in slot order: the masks the
    /// early exits test flips and differing registers against (DESIGN.md
    /// §11). `None` under the legacy engine. For soundness tests against
    /// the dynamic def-use trace ([`Runner::trace_golden`]).
    pub fn static_live_masks(&self) -> Option<Vec<u32>> {
        let d = Arc::clone(self.decoded.as_ref()?);
        Some(self.fault_machine().static_live_trace(&d))
    }

    /// Creates a reusable fault-run executor backed by its own machine.
    ///
    /// Campaign workers should create one replayer each and feed it faults:
    /// the machine's register files, frame stack and memory arena are
    /// reused across runs instead of being reallocated per injection.
    pub fn replayer(&self) -> Replayer<'_, 'p> {
        let mut machine = self.fault_machine();
        machine.enable_reuse();
        Replayer {
            runner: self,
            machine,
            early_exits: EarlyExits::default(),
        }
    }

    /// Runs once with `fault` (a [`GenFault`] or an SEU [`FaultSpec`])
    /// injected and classifies the outcome.
    ///
    /// Convenience wrapper that builds a fresh [`Replayer`] per call; loops
    /// should build one replayer and reuse it.
    pub fn run_fault(&self, fault: impl Into<GenFault>) -> (Outcome, RunResult) {
        self.replayer().run_fault(fault)
    }
}

/// Fault runs a [`Replayer`] ended early, by reason. Each such run
/// returned what the full run would have, without executing the rest of
/// the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyExits {
    /// Flips into a register statically dead at the injection slot: a
    /// register flip, or an ALU transient latched into its destination. A
    /// register no instruction names is one such case.
    pub dead_reg: u64,
    /// ALU transients that latched into no register.
    pub unlatched: u64,
    /// Runs that reached a golden checkpoint boundary in the golden state
    /// there, apart from integer registers dead at that boundary.
    pub rejoined: u64,
}

impl EarlyExits {
    /// All early exits, whatever the reason.
    pub fn total(&self) -> u64 {
        self.dead_reg + self.unlatched + self.rejoined
    }
}

impl std::fmt::Display for EarlyExits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rejoined={} dead_reg={} unlatched={}",
            self.rejoined, self.dead_reg, self.unlatched
        )
    }
}

/// A reusable fault-run executor: one machine arena, many injected runs.
#[derive(Debug)]
pub struct Replayer<'r, 'p> {
    runner: &'r Runner<'p>,
    machine: Machine<'p>,
    early_exits: EarlyExits,
}

impl Replayer<'_, '_> {
    /// Runs once with `fault` (a [`GenFault`] or an SEU [`FaultSpec`])
    /// injected and classifies the outcome.
    ///
    /// When checkpointing is enabled the machine restores the nearest
    /// checkpoint at or before the fault point and executes only the
    /// suffix; otherwise it resets and executes from instruction 0. Both
    /// paths return results bit-identical to a fresh from-scratch run.
    ///
    /// On the span engines a fault run stops as soon as the rest of it is
    /// provably the golden run's (see [`EarlyExits`]) and returns what the
    /// full run would: the golden run's status, output and instruction
    /// count, this fault's `injected` and `fault_pc`, and the golden probe
    /// counts plus whatever the fault run counted beyond the golden run up
    /// to the point it stopped.
    pub fn run_fault(&mut self, fault: impl Into<GenFault>) -> (Outcome, RunResult) {
        let fault = fault.into();
        let golden = &self.runner.golden;
        let restored = match self.runner.ckpts.prefix_for(fault.at_instr) {
            Some(prefix) => {
                self.machine.restore(prefix, &golden.output);
                prefix.len() - 1
            }
            None => {
                self.machine.reset();
                0
            }
        };
        let cps = self.runner.ckpts.as_slice();
        // The legacy core is the reference and always runs in full.
        let run = match self.machine.decoded.clone() {
            Some(d) => {
                let g = Golden {
                    run: golden,
                    cps,
                    restored,
                };
                self.machine
                    .run_decoded(&d, Some(fault), Some(&g), &mut Untimed)
            }
            None => Ok(self.machine.run_mut(Some(fault))),
        };
        let result = match run {
            Ok(result) => result,
            Err(exit) => {
                let mut probes = golden.probes;
                let n = match exit {
                    EarlyExit::DeadReg => &mut self.early_exits.dead_reg,
                    EarlyExit::Unlatched => &mut self.early_exits.unlatched,
                    EarlyExit::Rejoined(b) => {
                        // Probes never steer execution: the rest of the run
                        // counts what the golden run counts after `b`.
                        let (now, at_b) = (self.machine.probes, cps[b].probes);
                        probes.vote_repairs =
                            probes.vote_repairs - at_b.vote_repairs + now.vote_repairs;
                        probes.trump_recovers =
                            probes.trump_recovers - at_b.trump_recovers + now.trump_recovers;
                        &mut self.early_exits.rejoined
                    }
                };
                *n += 1;
                RunResult {
                    status: golden.status,
                    output: golden.output.clone(),
                    dyn_instrs: golden.dyn_instrs,
                    probes,
                    injected: true,
                    fault_pc: self.machine.fault_pc,
                    cycles: None,
                    cache_hits: None,
                    cache_misses: None,
                }
            }
        };
        (classify(golden, &result), result)
    }

    /// The early exits this replayer has taken so far.
    pub fn early_exits(&self) -> EarlyExits {
        self.early_exits
    }

    /// Runs once with `fault` injected and returns the provenance-annotated
    /// [`GenFaultRecord`] alongside the raw result, attributing the fault
    /// to the static instruction and protection role it landed on.
    pub fn run_fault_record_gen(&mut self, fault: GenFault) -> (GenFaultRecord, RunResult) {
        let (outcome, result) = self.run_fault(fault);
        let record = self.runner.record(fault, outcome, &result);
        (record, result)
    }

    /// [`Replayer::run_fault_record_gen`] for an SEU.
    pub fn run_fault_record(&mut self, fault: FaultSpec) -> (GenFaultRecord, RunResult) {
        self.run_fault_record_gen(fault.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ExecEngine;
    use sor_ir::{MemWidth, ModuleBuilder, Operand, Width};
    use sor_regalloc::{lower, LowerConfig};

    /// A program whose output depends on a value held in a register for a
    /// long stretch: emit(5 + 1) after a delay loop.
    fn program() -> sor_ir::Program {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.alloc_global_u64s("g", &[5]);
        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let x = f.load(MemWidth::B8, base, 0);
        let y = f.add(Width::W64, x, 1i64);
        f.store(MemWidth::B8, base, 8, y);
        let z = f.load(MemWidth::B8, base, 8);
        f.emit(Operand::reg(z));
        f.ret(&[]);
        let id = f.finish();
        let m = mb.finish(id);
        lower(&m, &LowerConfig::default()).unwrap()
    }

    /// A larger program with calls, loops and stores — enough structure
    /// that checkpoints land mid-frame and mid-loop.
    fn looping_program() -> sor_ir::Program {
        let mut mb = ModuleBuilder::new("loopy");
        let g = mb.alloc_global_u64s("g", &[3, 0]);

        let mut callee = mb.function("twice");
        let p = callee.param(sor_ir::RegClass::Int);
        let d = callee.add(Width::W64, p, p);
        callee.set_ret_count(1);
        callee.ret(&[Operand::reg(d)]);
        let callee_id = callee.finish();

        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let n = f.load(MemWidth::B8, base, 0);
        let mut acc = f.movi(1);
        for i in 0..6 {
            let doubled = f.call(callee_id, &[Operand::reg(acc)], &[sor_ir::RegClass::Int]);
            acc = f.add(Width::W64, doubled[0], i as i64);
            f.store(MemWidth::B8, base, 8, acc);
        }
        let back = f.load(MemWidth::B8, base, 8);
        let sum = f.add(Width::W64, back, n);
        f.emit(Operand::reg(sum));
        f.ret(&[]);
        let id = f.finish();
        let m = mb.finish(id);
        lower(&m, &LowerConfig::default()).unwrap()
    }

    #[test]
    fn golden_run_completes_and_emits() {
        let prog = program();
        let r = Runner::new(&prog, &MachineConfig::default());
        assert_eq!(r.golden().output, vec![6]);
        assert!(r.golden().dyn_instrs > 0);
    }

    #[test]
    fn fault_in_unused_register_is_unace() {
        let prog = program();
        let r = Runner::new(&prog, &MachineConfig::default());
        // r27 is almost certainly unused by this tiny program.
        let (outcome, res) = r.run_fault(FaultSpec::new(1, 27, 63));
        assert!(res.injected);
        assert_eq!(outcome, Outcome::UnAce);
    }

    #[test]
    fn some_fault_produces_damage() {
        // Sweep faults; at least one must corrupt output or segfault, since
        // the data value and the address both live in registers.
        let prog = program();
        let r = Runner::new(&prog, &MachineConfig::default());
        let golden_len = r.golden().dyn_instrs;
        let mut replayer = r.replayer();
        let mut damaged = 0;
        for reg in FaultSpec::injectable_regs() {
            for at in 0..golden_len {
                for bit in [0u8, 20, 40, 62] {
                    let (o, _) = replayer.run_fault(FaultSpec::new(at, reg, bit));
                    if o != Outcome::UnAce {
                        damaged += 1;
                    }
                }
            }
        }
        assert!(damaged > 0, "exhaustive sweep found no damaging fault");
    }

    /// The tentpole invariant: for every (at, reg, bit) point, a
    /// checkpointed replay returns exactly what a from-scratch run returns
    /// — same outcome, dynamic instruction count, output and probe
    /// counters.
    #[test]
    fn checkpointed_replay_is_bit_exact_with_from_scratch() {
        for prog in [program(), looping_program()] {
            let reference = Runner::new(
                &prog,
                &MachineConfig {
                    checkpoint_interval: 0,
                    ..MachineConfig::default()
                },
            );
            // Interval 3: several checkpoints even on these small programs.
            let checkpointed = Runner::new(
                &prog,
                &MachineConfig {
                    checkpoint_interval: 3,
                    ..MachineConfig::default()
                },
            );
            assert!(checkpointed.checkpoints().len() > 2);
            let golden_len = reference.golden().dyn_instrs;
            let mut replayer = checkpointed.replayer();
            for reg in FaultSpec::injectable_regs() {
                for at in 0..golden_len {
                    for bit in [0u8, 1, 17, 33, 63] {
                        let f = FaultSpec::new(at, reg, bit);
                        let (o_ref, r_ref) = reference.run_fault(f);
                        let (o_ck, r_ck) = replayer.run_fault(f);
                        assert_eq!(o_ref, o_ck, "{f}: outcome diverged");
                        assert_eq!(
                            r_ref.dyn_instrs, r_ck.dyn_instrs,
                            "{f}: dynamic instruction count diverged"
                        );
                        assert_eq!(r_ref.output, r_ck.output, "{f}: output diverged");
                        assert_eq!(r_ref.probes, r_ck.probes, "{f}: probes diverged");
                        assert_eq!(r_ref.injected, r_ck.injected, "{f}: injection diverged");
                    }
                }
            }
        }
    }

    /// A fault point past the end of the run completes uninjected on both
    /// paths.
    #[test]
    fn late_fault_point_is_equivalent_too() {
        let prog = looping_program();
        let reference = Runner::new(
            &prog,
            &MachineConfig {
                checkpoint_interval: 0,
                ..MachineConfig::default()
            },
        );
        let checkpointed = Runner::new(
            &prog,
            &MachineConfig {
                checkpoint_interval: 4,
                ..MachineConfig::default()
            },
        );
        let late = reference.golden().dyn_instrs + 5;
        let f = FaultSpec::new(late, 3, 7);
        let (o_ref, r_ref) = reference.run_fault(f);
        let (o_ck, r_ck) = checkpointed.run_fault(f);
        assert_eq!(o_ref, Outcome::UnAce);
        assert_eq!(o_ck, Outcome::UnAce);
        assert!(!r_ref.injected && !r_ck.injected);
        assert_eq!(r_ref.output, r_ck.output);
    }

    /// A replayer stays consistent across many reuses, including after
    /// early-terminating (Segv) runs that leave arbitrary state behind.
    #[test]
    fn replayer_reuse_does_not_leak_state() {
        let prog = looping_program();
        let r = Runner::new(&prog, &MachineConfig::default());
        let mut replayer = r.replayer();
        let golden_len = r.golden().dyn_instrs;
        let probe: Vec<FaultSpec> = (0..golden_len)
            .map(|at| FaultSpec::new(at, 5, 62))
            .collect();
        let first: Vec<Outcome> = probe.iter().map(|&f| replayer.run_fault(f).0).collect();
        let second: Vec<Outcome> = probe.iter().map(|&f| replayer.run_fault(f).0).collect();
        assert_eq!(first, second, "reuse changed outcomes");
    }

    /// Every generalized effect is pinned decoded == legacy on every
    /// observable, across every dynamic slot of a program with calls,
    /// loops, probes-free ALU chains and memory traffic.
    #[test]
    fn gen_effects_are_bit_identical_across_engines() {
        use crate::fault::FaultEffect;
        let prog = looping_program();
        let legacy = Runner::new(
            &prog,
            &MachineConfig {
                engine: ExecEngine::Legacy,
                ..MachineConfig::default()
            },
        );
        let decoded = Runner::new(
            &prog,
            &MachineConfig {
                engine: ExecEngine::Decoded,
                ..MachineConfig::default()
            },
        );
        let jit = Runner::new(&prog, &MachineConfig::default());
        let golden_len = legacy.golden().dyn_instrs;
        let g0 = prog.globals.first().map(|g| g.addr).unwrap_or(0);
        let effects = [
            FaultEffect::RegXor {
                reg: 5,
                mask: 0b111 << 20,
            },
            FaultEffect::RegXor { reg: 8, mask: 0b11 },
            FaultEffect::PcXor { mask: 1 },
            FaultEffect::PcXor { mask: 0b110 },
            FaultEffect::PcXor { mask: 1 << 12 },
            FaultEffect::MemXor { addr: g0, bit: 3 },
            FaultEffect::MemXor {
                addr: g0 + 8,
                bit: 7,
            },
            FaultEffect::MemXor { addr: 0x10, bit: 0 }, // unmapped: fires, no effect
            FaultEffect::AluXor { mask: 1 },
            FaultEffect::AluXor { mask: 1 << 40 },
            FaultEffect::AluXor { mask: u64::MAX },
        ];
        let mut rl = legacy.replayer();
        let mut rd = decoded.replayer();
        let mut rj = jit.replayer();
        for at in 0..golden_len {
            for effect in effects {
                let f = GenFault::new(at, effect);
                let (o_l, r_l) = rl.run_fault(f);
                let (o_d, r_d) = rd.run_fault(f);
                let (o_j, r_j) = rj.run_fault(f);
                assert_eq!(o_l, o_d, "{f}: outcome diverged across engines");
                assert_eq!(r_l, r_d, "{f}: result diverged across engines");
                assert_eq!(o_l, o_j, "{f}: jit outcome diverged");
                assert_eq!(r_l, r_j, "{f}: jit result diverged");
            }
        }
    }

    /// The early exits at injection return exactly the full run's result:
    /// on every slot × injectable register × a few single-bit and burst
    /// masks, plus a transient ALU fault at every slot, the decoded and jit
    /// replayers (which stop early) agree with the legacy one (which never
    /// does), and both exit reasons fire. This run is too short for rejoin
    /// tests; `rejoins_match_the_full_run` covers those.
    #[test]
    fn dead_flip_early_exit_matches_the_full_run() {
        use crate::fault::FaultEffect;
        let prog = looping_program();
        let mk = |engine| {
            Runner::new(
                &prog,
                &MachineConfig {
                    engine,
                    ..MachineConfig::default()
                },
            )
        };
        let (legacy, decoded, jit) = (
            mk(ExecEngine::Legacy),
            mk(ExecEngine::Decoded),
            mk(ExecEngine::Jit),
        );
        let mut rl = legacy.replayer();
        let mut rd = decoded.replayer();
        let mut rj = jit.replayer();
        let mut faults = Vec::new();
        for at in 0..legacy.golden().dyn_instrs {
            for reg in FaultSpec::injectable_regs() {
                for mask in [1u64, 1 << 31, 1 << 63, 0b1111 << 20] {
                    faults.push(GenFault::new(at, FaultEffect::RegXor { reg, mask }));
                }
            }
            for mask in [1u64, 1 << 40] {
                faults.push(GenFault::new(at, FaultEffect::AluXor { mask }));
            }
        }
        for f in faults {
            let expected = rl.run_fault(f);
            assert_eq!(rd.run_fault(f), expected, "{f}: decoded diverged");
            assert_eq!(rj.run_fault(f), expected, "{f}: jit diverged");
        }
        assert_eq!(rl.early_exits().total(), 0, "legacy runs in full");
        for exits in [rd.early_exits(), rj.early_exits()] {
            assert!(exits.dead_reg > 0, "{exits:?}");
            assert!(exits.unlatched > 0, "{exits:?}");
        }
        assert_eq!(rd.early_exits(), rj.early_exits());
    }

    /// A counted loop of about 9,000 instructions: each iteration calls
    /// `twice`, accumulates and stores the running value, so checkpoints
    /// land mid-loop and mid-call with most of the run still ahead.
    fn long_loop_program() -> sor_ir::Program {
        use sor_ir::{CmpOp, RegClass};
        let mut mb = ModuleBuilder::new("long");
        let g = mb.alloc_global_u64s("g", &[0, 0]);
        let mut callee = mb.function("twice");
        let p = callee.param(RegClass::Int);
        let d = callee.add(Width::W64, p, p);
        callee.set_ret_count(1);
        callee.ret(&[Operand::reg(d)]);
        let twice = callee.finish();
        let mut f = mb.function("main");
        let base = f.movi(g as i64);
        let (i, acc) = (f.movi(0), f.movi(1));
        let (body, exit) = (f.block(), f.block());
        f.jump(body);
        f.switch_to(body);
        let d = f.call(twice, &[Operand::reg(i)], &[RegClass::Int]);
        let sum = f.add(Width::W64, acc, d[0]);
        f.mov_to(acc, sum);
        f.store(MemWidth::B8, base, 8, acc);
        let next = f.add(Width::W64, i, 1i64);
        f.mov_to(i, next);
        let more = f.cmp(CmpOp::LtU, Width::W64, i, 700i64);
        f.branch(more, body, exit);
        f.switch_to(exit);
        let back = f.load(MemWidth::B8, base, 8);
        f.emit(Operand::reg(back));
        f.ret(&[]);
        let id = f.finish();
        lower(&mb.finish(id), &LowerConfig::default()).unwrap()
    }

    /// Runs that rejoin the golden run at a checkpoint boundary return
    /// exactly the full run's result, on both span engines, for register,
    /// ALU and memory faults at a spread of slots.
    #[test]
    fn rejoins_match_the_full_run() {
        use crate::fault::FaultEffect;
        let prog = long_loop_program();
        let g0 = prog.globals[0].addr;
        let mk = |engine| {
            let cfg = MachineConfig {
                engine,
                checkpoint_interval: 50,
                ..MachineConfig::default()
            };
            Runner::new(&prog, &cfg)
        };
        let (legacy, decoded, jit) = (
            mk(ExecEngine::Legacy),
            mk(ExecEngine::Decoded),
            mk(ExecEngine::Jit),
        );
        assert!(legacy.golden().dyn_instrs > 2 * 4096);
        let (mut rl, mut rd, mut rj) = (legacy.replayer(), decoded.replayer(), jit.replayer());
        for at in (0..legacy.golden().dyn_instrs).step_by(41) {
            let mut effects: Vec<FaultEffect> = FaultSpec::injectable_regs()
                .map(|reg| FaultEffect::RegXor { reg, mask: 1 << 9 })
                .collect();
            effects.push(FaultEffect::AluXor { mask: 1 << 3 });
            effects.push(FaultEffect::MemXor {
                addr: g0 + 8,
                bit: 1,
            });
            for effect in effects {
                let f = GenFault::new(at, effect);
                let expected = rl.run_fault(f);
                assert_eq!(rd.run_fault(f), expected, "{f}: decoded diverged");
                assert_eq!(rj.run_fault(f), expected, "{f}: jit diverged");
            }
        }
        assert_eq!(rl.early_exits().total(), 0, "legacy runs in full");
        assert!(rj.early_exits().rejoined > 0, "{}", rj.early_exits());
        assert_eq!(rd.early_exits(), rj.early_exits());
    }

    /// The jit engine is pinned bit-identical to the decoded and legacy
    /// engines on golden runs and an exhaustive single-bit fault sweep
    /// over every dynamic slot (replayed through checkpoints as usual).
    #[test]
    fn jit_fault_sweep_matches_decoded_and_legacy() {
        for prog in [program(), looping_program()] {
            let mk = |engine| {
                Runner::new(
                    &prog,
                    &MachineConfig {
                        engine,
                        ..MachineConfig::default()
                    },
                )
            };
            let legacy = mk(ExecEngine::Legacy);
            let decoded = mk(ExecEngine::Decoded);
            let jit = mk(ExecEngine::Jit);
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            assert!(
                jit.jit().is_some(),
                "native compilation must succeed on x86-64 linux"
            );
            assert_eq!(legacy.golden().output, jit.golden().output);
            assert_eq!(legacy.golden().dyn_instrs, jit.golden().dyn_instrs);
            let golden_len = legacy.golden().dyn_instrs;
            let mut rl = legacy.replayer();
            let mut rd = decoded.replayer();
            let mut rj = jit.replayer();
            for reg in FaultSpec::injectable_regs() {
                for at in 0..golden_len {
                    for bit in [0u8, 17, 40, 63] {
                        let f = FaultSpec::new(at, reg, bit);
                        let (o_l, r_l) = rl.run_fault(f);
                        let (o_d, r_d) = rd.run_fault(f);
                        let (o_j, r_j) = rj.run_fault(f);
                        assert_eq!(o_l, o_j, "{f}: jit outcome diverged from legacy");
                        assert_eq!(r_l, r_j, "{f}: jit result diverged from legacy");
                        assert_eq!(o_d, o_j, "{f}: jit outcome diverged from decoded");
                        assert_eq!(r_d, r_j, "{f}: jit result diverged from decoded");
                    }
                }
            }
        }
    }

    /// Under the jit config with no native image supplied (compilation
    /// unavailable), machines degrade to the decoded interpreter with
    /// identical results — the graceful-degradation contract.
    #[test]
    fn jit_config_without_native_image_falls_back_to_decoded() {
        let prog = looping_program();
        let cfg = MachineConfig::default();
        let d = Arc::new(DecodedProg::new(&prog));
        let reference = Machine::new(
            &prog,
            &MachineConfig {
                engine: ExecEngine::Decoded,
                ..cfg.clone()
            },
        )
        .run(None);
        let fallback = Machine::with_images(&prog, &cfg, d, None).run(None);
        assert_eq!(reference, fallback);
    }

    /// Off-native the emitter reports `Unsupported` and runners under the
    /// jit config degrade (with a one-time warning) to the decoded
    /// interpreter, still completing bit-identically.
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    #[test]
    fn jit_unavailable_off_native_degrades_to_decoded() {
        let prog = program();
        let d = DecodedProg::new(&prog);
        assert!(matches!(
            crate::JitProg::compile(&d, &prog),
            Err(crate::JitError::Unsupported)
        ));
        let r = Runner::new(&prog, &MachineConfig::default());
        assert!(r.jit().is_none());
        assert_eq!(r.golden().output, vec![6]);
    }

    /// PC corruption that lands outside the program image is a SEGV (wild
    /// fetch), and the fault still counts as fired at the original pc.
    #[test]
    fn gen_pc_xor_outside_the_image_is_a_segv() {
        let prog = program();
        for engine in ExecEngine::ALL {
            let cfg = MachineConfig {
                engine,
                ..MachineConfig::default()
            };
            let r = Runner::new(&prog, &cfg);
            // A huge mask lands far outside any real image.
            let f = GenFault::new(1, crate::FaultEffect::PcXor { mask: 1 << 40 });
            let (outcome, res) = r.run_fault(f);
            assert_eq!(outcome, Outcome::Segv, "{engine:?}");
            assert!(res.injected);
            assert!(res.fault_pc.is_some());
        }
    }

    #[derive(Default)]
    struct VecSink(Vec<(u64, usize, u32, u32)>);

    impl TraceSink for VecSink {
        fn record(&mut self, slot: u64, check_pc: usize, reads: u32, writes: u32) {
            self.0.push((slot, check_pc, reads, writes));
        }
    }

    /// The def-use trace covers every dynamic slot exactly once, in order,
    /// and each slot's `check_pc` is precisely the pc an injection armed
    /// for that slot observes as its `fault_pc`.
    #[test]
    fn trace_slots_are_contiguous_and_check_pcs_match_fault_pcs() {
        for prog in [program(), looping_program()] {
            let r = Runner::new(&prog, &MachineConfig::default());
            let mut sink = VecSink::default();
            r.trace_golden(&mut sink);
            assert_eq!(sink.0.len() as u64, r.golden().dyn_instrs);
            let mut replayer = r.replayer();
            for (i, &(slot, check_pc, _, _)) in sink.0.iter().enumerate() {
                assert_eq!(slot, i as u64, "trace slots must be contiguous");
                let (_, res) = replayer.run_fault(FaultSpec::new(slot, 8, 0));
                assert_eq!(
                    res.fault_pc,
                    Some(check_pc),
                    "slot {slot}: trace check_pc diverged from injection fault_pc"
                );
            }
        }
    }
}
