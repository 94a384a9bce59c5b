//! Shared plumbing: kernels, seeded choices, digests, op loops, run
//! envelope.

use crate::trace::span;
use crate::Layers;
use sor_core::{Pipeline, Technique, TransformConfig};
use sor_harness::ArtifactStore;
use sor_regalloc::{lower, LowerConfig};
use sor_rng::SmallRng;
use sor_sim::{DecodedProg, ExecEngine, Runner};
use sor_stats::OutcomeCounts;
use sor_workloads::{
    AdpcmDec, AdpcmEnc, Art, Equake, Mcf, Mpeg2Dec, Mpeg2Enc, Parser, Twolf, Vortex, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed whose per-op result digests are committed under `digests/`.
pub const DEFAULT_SEED: u64 = 1;

/// Every timed run measures at least this many ops, so the p90 has at
/// least ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Worker threads of the campaign and certification pools. One, so a
/// timed run leaves the second of the 2 vCPUs it was sized on to the rest
/// of the machine: two busy pool threads on two vCPUs made every other
/// process's slice land on the measured ops, and runs of the same code
/// then spread by a quarter.
pub const THREADS: usize = 1;

/// Server workers and closed-loop clients.
pub const CLIENTS: usize = 2;

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

pub type Kernel = Box<dyn Workload + Send + Sync>;

/// Number of kernels in the suite (the paper's ten benchmarks).
pub const KERNELS: usize = 10;

/// Kernel `kind` (Figure 8 order) at its registry size, with its input
/// data drawn from `seed`. `scale` multiplies the parameter that sets the
/// kernel's dynamic length (1 = registry size).
pub fn kernel(kind: usize, scale: u64, seed: u64) -> Kernel {
    match kind {
        0 => Box::new(Art {
            epochs: Art::default().epochs * scale,
            seed,
            ..Art::default()
        }),
        1 => Box::new(Mcf {
            steps: Mcf::default().steps * scale,
            seed,
            ..Mcf::default()
        }),
        2 => Box::new(Equake {
            iters: Equake::default().iters * scale,
            seed,
            ..Equake::default()
        }),
        3 => Box::new(Parser {
            text_len: Parser::default().text_len * scale,
            seed,
        }),
        4 => Box::new(Vortex {
            queries: Vortex::default().queries * scale,
            seed,
            ..Vortex::default()
        }),
        5 => Box::new(Twolf {
            swaps: Twolf::default().swaps * scale,
            seed,
            ..Twolf::default()
        }),
        6 => Box::new(AdpcmDec {
            samples: AdpcmDec::default().samples * scale,
            seed,
        }),
        7 => Box::new(AdpcmEnc {
            samples: AdpcmEnc::default().samples * scale,
            seed,
        }),
        8 => Box::new(Mpeg2Dec {
            blocks: Mpeg2Dec::default().blocks * scale,
            seed,
        }),
        9 => Box::new(Mpeg2Enc {
            blocks: Mpeg2Enc::default().blocks * scale,
            seed,
        }),
        _ => unreachable!("kernel kind {kind} out of range"),
    }
}

/// A seeded generator for one purpose (`salt`) of one run.
pub fn rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0, i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// 64-bit FNV-1a, the digest of op results.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn counts(self, c: &OutcomeCounts) -> Self {
        self.u64(c.unace)
            .u64(c.sdc)
            .u64(c.segv)
            .u64(c.detected)
            .u64(c.hang)
            .u64(c.recoveries)
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for stores and server state, removed at exit.
    pub tmp: PathBuf,
    /// Committed per-op result digests, when `seed` is the default seed.
    pub expected: Vec<u64>,
}

/// One completed op: its measured time, the work units it completed,
/// and the digest of its result.
pub struct Done {
    /// The op's time as the metrics count it: process CPU time for ops
    /// that run alone in the process (see [`Stopwatch`]), wall time for
    /// the server's concurrent clients.
    pub secs: f64,
    /// The op's wall time.
    pub wall_s: f64,
    pub work: f64,
    pub digest: u64,
}

/// Times one op in both CPU time of the whole process (every thread,
/// including pool workers that have exited) and wall time.
///
/// The metrics count CPU time: the ops run alone in this process and
/// never block, so on an idle machine the two agree, but on a shared
/// virtual machine the host takes the vCPU away for stretches (steal
/// time reached half a vCPU for minutes on the host this was sized on),
/// and only CPU time leaves that out.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// (CPU seconds, wall seconds) since [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64) {
        (
            process_cpu_s() - self.cpu_s,
            self.wall.elapsed().as_secs_f64(),
        )
    }
}

/// CPU time used by this process so far, in seconds
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, by raw system call since
/// the benchmark links no libc bindings).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn process_cpu_s() -> f64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one `struct timespec` (two i64 on
    // x86-64 Linux) to `ts` and touches no other memory.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_PROCESS_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    assert_eq!(ret, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// Elsewhere there is no process CPU clock here; ops are timed by wall
/// clock from the first call.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn process_cpu_s() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Per-op outcomes of one measured phase.
#[derive(Default)]
pub struct OpLog {
    /// Time of each successful op as the metrics count it (see
    /// [`Done::secs`]), in completion order.
    pub lat_s: Vec<f64>,
    /// Wall time of each successful op, in completion order.
    pub wall_lat_s: Vec<f64>,
    /// Work units completed by successful ops.
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Result digest of every op, by op index (failed ops hold 0).
    pub digests: Vec<u64>,
    /// Wall time the work took: the summed op times of a sequential loop,
    /// the whole window when clients run concurrently.
    pub wall_s: f64,
    /// Successful ops and work completed by the end of each whole round
    /// of a timed loop.
    pub rounds: Vec<(usize, f64)>,
    /// Peak RSS in MiB once a timed loop had run [`MIN_OPS`] ops (to the
    /// end of that round), a fixed amount of work whatever the host's
    /// speed: `recertify`'s stores grow with every op.
    pub rss_mb: Option<f64>,
}

impl OpLog {
    /// Throughput (work units per second) and p50 and p90 op time in
    /// seconds, with op times `lat` (`lat_s` or `wall_lat_s`). When the loop
    /// ran in rounds, each is the median over rounds of that round's
    /// figure: the shared host this was sized on runs up to 1.8x slower
    /// for stretches of seconds, and a median over rounds moves less with
    /// such a stretch than a figure over the whole run. Otherwise
    /// (concurrent clients) they are taken over the whole window.
    pub fn summary(&self, lat: &[f64]) -> (f64, f64, f64) {
        let stats = |work: f64, lat: &[f64]| {
            let mut lat = lat.to_vec();
            lat.sort_by(f64::total_cmp);
            let busy_s: f64 = lat.iter().sum();
            [
                work / busy_s.max(1e-9),
                percentile(&lat, 0.5),
                percentile(&lat, 0.9),
            ]
        };
        if self.rounds.is_empty() {
            let [_, p50, p90] = stats(self.work, lat);
            return (self.work / self.wall_s.max(1e-9), p50, p90);
        }
        let mut per_round = Vec::new();
        let (mut first, mut done) = (0, 0.0);
        for &(end, work) in &self.rounds {
            per_round.push(stats(work - done, &lat[first..end]));
            (first, done) = (end, work);
        }
        let of = |k: usize| median(&per_round.iter().map(|r| r[k]).collect::<Vec<_>>());
        (of(0), of(1), of(2))
    }

    /// Records op `i`'s outcome: a panic, an error, or a digest that
    /// disagrees with the committed one is a failed op.
    pub fn record(
        &mut self,
        ctx: &Ctx,
        i: usize,
        result: std::thread::Result<Result<Done, String>>,
    ) {
        self.attempted += 1;
        if self.digests.len() <= i {
            self.digests.resize(i + 1, 0);
        }
        let result = match result {
            Ok(Ok(done)) => match ctx.expected.get(i) {
                Some(&want) if want != done.digest => Err(format!(
                    "op {i}: result digest {:016x} != committed {want:016x}",
                    done.digest
                )),
                _ => Ok(done),
            },
            Ok(Err(e)) => Err(format!("op {i}: {e}")),
            Err(panic) => Err(format!("op {i} panicked: {}", panic_message(&panic))),
        };
        match result {
            Ok(done) => {
                self.lat_s.push(done.secs);
                self.wall_lat_s.push(done.wall_s);
                self.work += done.work;
                self.digests[i] = done.digest;
            }
            Err(e) => self.fail(e),
        }
    }

    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            eprintln!("FAILED {e}");
            self.errors.push(e);
        }
    }

    pub fn merge(&mut self, other: OpLog) {
        self.lat_s.extend(other.lat_s);
        self.wall_lat_s.extend(other.wall_lat_s);
        self.work += other.work;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        if self.digests.len() < other.digests.len() {
            self.digests.resize(other.digests.len(), 0);
        }
        for (i, d) in other.digests.into_iter().enumerate() {
            if d != 0 {
                self.digests[i] = d;
            }
        }
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs one op, catching a panic so it counts as a failed op instead of
/// ending the run.
pub fn attempt(
    op: impl FnOnce() -> Result<Done, String>,
) -> std::thread::Result<Result<Done, String>> {
    catch_unwind(AssertUnwindSafe(op))
}

/// Runs ops `0, 1, 2, ...` until `ctx.seconds` have passed, at least
/// [`MIN_OPS`] ops ran, and the op count is a whole number of `round`s
/// (each round visits every member of the workload's mix once).
///
/// Set-up runs [`SETUP_REPS`] times in all: once before the loop (the one
/// whose result the ops use, taking `first_setup_s`) and then `setup_again`
/// each time a further `1 / SETUP_REPS` of the run has passed (from the
/// end of the first [`MIN_OPS`] ops on), so the set-up times sample the
/// host over the whole run like the ops do.
/// Returns the log and the median set-up time.
pub fn timed_ops(
    ctx: &Ctx,
    round: usize,
    first_setup_s: f64,
    mut setup_again: impl FnMut() -> f64,
    mut op: impl FnMut(usize) -> Result<Done, String>,
) -> (OpLog, f64) {
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut setups = vec![first_setup_s];
    let mut log = OpLog::default();
    let mut i = 0;
    while i < MIN_OPS || i % round != 0 || start.elapsed() < deadline {
        // Only after the peak-RSS sample, which spare set-ups would raise.
        let next_setup = deadline.mul_f64(setups.len() as f64 / SETUP_REPS as f64);
        if log.rss_mb.is_some() && setups.len() < SETUP_REPS && start.elapsed() >= next_setup {
            setups.push(setup_again());
        }
        let r = attempt(|| op(i));
        log.record(ctx, i, r);
        i += 1;
        let last = log.rounds.last().map_or(0, |r| r.0);
        if i % round == 0 && log.lat_s.len() > last {
            log.rounds.push((log.lat_s.len(), log.work));
        }
        if i % round == 0 && i >= MIN_OPS && log.rss_mb.is_none() {
            log.rss_mb = Some(peak_rss_mb());
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup_again());
    }
    log.wall_s = log.wall_lat_s.iter().sum();
    (log, median(&setups))
}

/// Runs `setup` once; returns its result and its CPU time in seconds
/// (see [`Stopwatch`]).
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t = Stopwatch::start();
    let out = setup();
    (out, t.stop().0)
}

/// Runs exactly ops `0..n` (the traced run and digest emission).
pub fn fixed_ops(ctx: &Ctx, n: usize, mut op: impl FnMut(usize) -> Result<Done, String>) -> OpLog {
    let mut log = OpLog::default();
    for i in 0..n {
        let r = attempt(|| op(i));
        log.record(ctx, i, r);
    }
    log.wall_s = log.wall_lat_s.iter().sum();
    log
}

/// Mean of `xs` seconds, in ms (0 when empty).
pub fn mean_ms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() * 1e3 / xs.len() as f64
    }
}

/// Median of `xs` (which must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds, counted in CPU time like the ops (see
/// [`Stopwatch`]).
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // release the previous instance before building the next
        let t = Stopwatch::start();
        last = Some(setup());
        times.push(t.stop().0);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Prepares one program through the artifact store and, with `jit`,
/// compiles its native image. Traced, it first replays the build,
/// transform, lower and decode steps through each layer's public function
/// for the per-layer set-up times (the store then repeats them).
pub fn prepare(store: &ArtifactStore, w: &dyn Workload, t: Technique, jit: bool, traced: bool) {
    let (tc, lc) = (TransformConfig::default(), LowerConfig::default());
    if !traced {
        let art = store.get(w, t, &tc, &lc);
        if jit {
            art.jit_for(ExecEngine::Jit);
        }
        return;
    }
    let module = span("workloads.build", || w.build());
    let out = span("core.transform", || {
        Pipeline::for_technique(t).run(&module, &tc)
    })
    .expect("unverified pipelines cannot fail");
    let program = span("regalloc.lower", || lower(&out.module, &lc))
        .unwrap_or_else(|e| panic!("{}/{t}: {e}", w.name()));
    span("sim.decode", || DecodedProg::new(&program));
    let art = span("harness.artifact_get", || store.get(w, t, &tc, &lc));
    if jit {
        span("sim.jit_compile", || art.jit_for(ExecEngine::Jit))
            .unwrap_or_else(|| panic!("{}/{t}: native compilation unavailable", w.name()));
    }
}

/// Fault-run statistics the traced ops collect.
#[derive(Default)]
pub struct ReplayStats {
    fault_us: Vec<f64>,
    instrs: u64,
    pub counts: OutcomeCounts,
    golden_instrs: u64,
    checkpoints: u64,
    checkpoint_pages: u64,
}

impl ReplayStats {
    /// Notes a runner's golden run and checkpoint store.
    pub fn golden(&mut self, runner: &Runner<'_>) {
        self.golden_instrs += runner.golden().dyn_instrs;
        self.checkpoints += runner.checkpoints().len() as u64;
        self.checkpoint_pages += runner.checkpoints().total_pages() as u64;
    }

    /// Notes one fault run injected at slot `at`: its wall time and the
    /// instructions it executed after resuming from the nearest checkpoint.
    pub fn note(&mut self, runner: &Runner<'_>, at: u64, secs: f64, dyn_instrs: u64) {
        self.fault_us.push(secs * 1e6);
        let resumed_at = runner
            .checkpoints()
            .prefix_for(at)
            .and_then(|p| p.last())
            .map_or(0, |cp| cp.at);
        self.instrs += dyn_instrs.saturating_sub(resumed_at);
    }

    pub fn into_layers(mut self, layers: &mut Layers) {
        self.fault_us.sort_by(f64::total_cmp);
        let replay_s: f64 = self.fault_us.iter().sum::<f64>() / 1e6;
        layers.insert("sim.fault_run_us.p50", percentile(&self.fault_us, 0.5));
        layers.insert("sim.fault_run_us.p90", percentile(&self.fault_us, 0.9));
        let mips = if replay_s > 0.0 {
            self.instrs as f64 / 1e6 / replay_s
        } else {
            0.0
        };
        layers.insert("sim.replay_minstr_per_s", mips);
        layers.insert("sim.faults", self.fault_us.len() as f64);
        layers.insert("sim.golden_instrs", self.golden_instrs as f64);
        layers.insert("sim.checkpoints", self.checkpoints as f64);
        layers.insert("sim.checkpoint_pages", self.checkpoint_pages as f64);
        let c = &self.counts;
        layers.insert("sim.outcome.unace", c.unace as f64);
        layers.insert("sim.outcome.sdc", c.sdc as f64);
        layers.insert("sim.outcome.segv", c.segv as f64);
        layers.insert("sim.outcome.detected", c.detected as f64);
        layers.insert("sim.outcome.hang", c.hang as f64);
    }
}
