//! Out-of-order dataflow timing model.
//!
//! The PPC970 the paper measured on is aggressively out-of-order, and the
//! transforms rely on that: redundant copies and checks are *independent* of
//! the original computation, so they fill otherwise-idle issue slots instead
//! of lengthening the critical path. The model here is an idealized
//! dataflow machine with three real-world restrictions:
//!
//! * **fetch bandwidth** — the front end delivers at most `issue_width`
//!   instructions per cycle;
//! * **issue bandwidth** — at most `issue_width` instructions execute in any
//!   one cycle (tracked in a ring of per-cycle slot counters);
//! * **a finite reorder buffer with in-order retirement** — instruction `n`
//!   cannot be fetched until instruction `n - rob_size` has retired, and
//!   retirement is in-order. This is what creates the *slack* the paper's
//!   results hinge on: a baseline program stalled on dependence or miss
//!   chains leaves fetch/issue slots idle, and the transforms' independent
//!   redundant work soaks those up at little cost.
//!
//! Within those bounds every instruction issues as soon as its source
//! registers are ready. Loads take the cache model's hit/miss latency, so
//! memory-bound code (the paper's `181.mcf`) is limited by miss chains and
//! barely notices added instructions, while fetch-bound code pays nearly
//! linearly for added instructions.
//!
//! Timed runs execute on the decoded span loop (`crate::exec`), which
//! hands the scheduler one precomputed [`OpTiming`] per executed op
//! ([`Timing::issue_op`]), plus the data-cache access of memory ops and
//! the redirect of taken branches.

use crate::cache::{Cache, CacheConfig};
use sor_ir::{AluOp, FpOp, PArg, PInst, POperand, Preg, RegClass, NUM_FREGS, NUM_IREGS};

/// Timing model parameters.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Fetch/issue width (the PPC970 dispatches up to 5 per cycle).
    pub issue_width: u32,
    /// Extra fetch-stall cycles on a taken *conditional* branch. Defaults to
    /// 0: the branches the transforms insert are perfectly predictable
    /// (checks fail only when a fault hit), so charging a redirect would
    /// overstate their cost. The ablation benches sweep this.
    pub taken_branch_penalty: u64,
    /// Reorder-buffer size (in-flight instruction window). The PPC970
    /// tracks ~100 in-flight instructions; the default is 128.
    pub rob_size: usize,
    /// Operation latencies.
    pub lat: Latencies,
    /// L1-D cache geometry.
    pub cache: CacheConfig,
}

/// Result latencies in cycles, calibrated to the PPC970's deep pipeline
/// (16+ stages: simple fixed-point ops have 2-cycle back-to-back latency,
/// loads 5 cycles to use, FP ~6).
#[derive(Debug, Clone)]
pub struct Latencies {
    /// Simple integer ALU, moves, compares, selects.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide/remainder.
    pub div: u64,
    /// L1-hit load-to-use.
    pub load: u64,
    /// FP add/sub/mul and conversions.
    pub fp: u64,
    /// FP divide.
    pub fdiv: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            alu: 2,
            mul: 7,
            div: 40,
            load: 5,
            fp: 6,
            fdiv: 33,
        }
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            issue_width: 5,
            taken_branch_penalty: 0,
            rob_size: 128,
            lat: Latencies::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// Ring size bounding how far ahead of the oldest unissued cycle the
/// scheduler may place work (an effective reorder window, in cycles).
const RING: u64 = 4096;

/// Ready-array entries that hold registers: integer registers at `0..32`,
/// float registers at `32..64`.
const READY: usize = NUM_IREGS + NUM_FREGS;

/// Ready-array entry no op writes: unused sources read it, so every
/// descriptor reads exactly three.
const NO_SRC: u8 = READY as u8;

/// Ready-array entry ops that write no register write, so every
/// descriptor writes exactly one.
const NO_DST: u8 = READY as u8 + 1;

/// Allocated ready-array entries: a power of two, so masking an index
/// bounds it.
const READY_ALLOC: usize = 128;

/// Latency class of an issued op: an index into the scheduler's latency
/// table, so descriptors stay independent of the [`TimingConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LatClass {
    Alu,
    Mul,
    Div,
    /// A load: the load-to-use latency plus the miss penalty of the
    /// access the executor reported for it ([`Timing::load`]).
    Load,
    Fp,
    FDiv,
    /// One cycle: stores, jumps, branches and `CallExt`.
    One,
    /// Two cycles: `CallInt`, `Enter` and `Ret`.
    Two,
}

/// What the scheduler needs of one static instruction: the ready-array
/// entries it reads and writes, and its latency class. A timed run
/// describes its program once ([`OpTiming::of`]), then hands the
/// scheduler the descriptor of each op the span loop executes
/// ([`Timing::issue_op`]).
///
/// The descriptors reproduce the per-instruction model exactly: a
/// `Select` sources both arms, `CallExt` sources at most its first three
/// register arguments, `CallInt`/`Enter`/`Ret` source nothing. Memory and
/// branch effects are dynamic and come from the executor: a load or a
/// store reports its address unless it targets the output page, and a
/// taken `Branch` reports [`Timing::taken_branch`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpTiming {
    srcs: [u8; 3],
    dst: u8,
    class: LatClass,
}

/// Ready-array entry of a register.
fn entry(r: Preg) -> u8 {
    match r.class() {
        RegClass::Int => r.index(),
        RegClass::Float => NUM_IREGS as u8 + r.index(),
    }
}

/// Source entries of a descriptor under construction.
struct Srcs([u8; 3], usize);

impl Srcs {
    fn reg(&mut self, r: Preg) {
        self.0[self.1] = entry(r);
        self.1 += 1;
    }

    fn operand(&mut self, o: &POperand) {
        if let POperand::Reg(r) = o {
            self.reg(*r);
        }
    }
}

impl OpTiming {
    /// The descriptor of `inst`. Traps and probes are never issued; they
    /// get an empty one.
    pub(crate) fn of(inst: &PInst) -> OpTiming {
        let mut s = Srcs([NO_SRC; 3], 0);
        let (dst, class) = match inst {
            PInst::Alu { op, dst, a, b, .. } => {
                s.operand(a);
                s.operand(b);
                let class = match op {
                    AluOp::Mul => LatClass::Mul,
                    AluOp::DivU | AluOp::DivS | AluOp::RemU | AluOp::RemS => LatClass::Div,
                    _ => LatClass::Alu,
                };
                (Some(*dst), class)
            }
            PInst::Cmp { dst, a, b, .. } => {
                s.operand(a);
                s.operand(b);
                (Some(*dst), LatClass::Alu)
            }
            PInst::Mov { dst, src } => {
                s.operand(src);
                (Some(*dst), LatClass::Alu)
            }
            PInst::Select { dst, cond, t, f } => {
                s.reg(*cond);
                s.operand(t);
                s.operand(f);
                (Some(*dst), LatClass::Alu)
            }
            PInst::Load { dst, base, .. } => {
                s.reg(*base);
                (Some(*dst), LatClass::Load)
            }
            PInst::Store { base, src, .. } => {
                s.reg(*base);
                s.operand(src);
                (None, LatClass::One)
            }
            PInst::Fpu { op, dst, a, b } => {
                s.reg(*a);
                s.reg(*b);
                let class = match op {
                    FpOp::Add | FpOp::Sub | FpOp::Mul => LatClass::Fp,
                    FpOp::Div => LatClass::FDiv,
                };
                (Some(*dst), class)
            }
            PInst::FMovImm { dst, .. } => (Some(*dst), LatClass::Alu),
            PInst::FMov { dst, src } => {
                s.reg(*src);
                (Some(*dst), LatClass::Alu)
            }
            PInst::FCmp { dst, a, b, .. } => {
                s.reg(*a);
                s.reg(*b);
                (Some(*dst), LatClass::Fp)
            }
            PInst::CvtIF { dst, src } | PInst::CvtFI { dst, src } => {
                s.reg(*src);
                (Some(*dst), LatClass::Fp)
            }
            PInst::FLoad { dst, base, .. } => {
                s.reg(*base);
                (Some(*dst), LatClass::Load)
            }
            PInst::FStore { base, src, .. } => {
                s.reg(*base);
                s.reg(*src);
                (None, LatClass::One)
            }
            PInst::Branch { cond, .. } => {
                s.reg(*cond);
                (None, LatClass::One)
            }
            PInst::CallExt { args, .. } => {
                for a in args {
                    if let (PArg::Reg(p), true) = (a, s.1 < 3) {
                        s.reg(*p);
                    }
                }
                (None, LatClass::One)
            }
            PInst::CallInt { .. } | PInst::Enter { .. } | PInst::Ret { .. } => {
                (None, LatClass::Two)
            }
            PInst::Jump(_) | PInst::Trap(_) | PInst::Probe(_) => (None, LatClass::One),
        };
        OpTiming {
            srcs: s.0,
            dst: dst.map_or(NO_DST, entry),
            class,
        }
    }
}

/// The scheduler state.
#[derive(Debug, Clone)]
pub(crate) struct Timing {
    issue_width: u32,
    taken_branch_penalty: u64,
    miss_penalty: u64,
    /// Cycles per [`LatClass`], in declaration order.
    lat: [u64; 8],
    cache: Cache,
    /// ROB slot of the next fetched instruction (instructions fetched so
    /// far, modulo the ROB size).
    rob_head: usize,
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    slots: Vec<(u64, u32)>, // (cycle, issued-in-cycle)
    max_cycle: u64,
    // Retirement times of the last `rob_size` instructions (ring by index).
    retire: Vec<u64>,
    last_retire: u64,
    /// Cycle each register's value is ready, by [`slot`].
    ready: [u64; READY_ALLOC],
    /// Miss penalty of the load about to issue.
    pending_miss: u64,
}

impl Timing {
    /// Creates a fresh scheduler.
    pub(crate) fn new(cfg: &TimingConfig) -> Self {
        let l = &cfg.lat;
        Timing {
            issue_width: cfg.issue_width,
            taken_branch_penalty: cfg.taken_branch_penalty,
            miss_penalty: cfg.cache.miss_penalty,
            lat: [l.alu, l.mul, l.div, l.load, l.fp, l.fdiv, 1, 2],
            cache: Cache::new(&cfg.cache),
            rob_head: 0,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            slots: vec![(u64::MAX, 0); RING as usize],
            max_cycle: 0,
            retire: vec![0; cfg.rob_size.max(1)],
            last_retire: 0,
            ready: [0; READY_ALLOC],
            pending_miss: 0,
        }
    }

    fn slot_count(&mut self, cycle: u64) -> &mut u32 {
        let idx = (cycle % RING) as usize;
        let entry = &mut self.slots[idx];
        if entry.0 != cycle {
            *entry = (cycle, 0);
        }
        &mut entry.1
    }

    /// Issues one executed op described by `op`. A load's miss penalty
    /// comes from the [`Timing::load`] call the executor made for it.
    /// Always inlined into the span loop: as a call it cost about 1.4 ns
    /// of the run's 15 per instruction (EXPERIMENTS.md E21).
    #[inline(always)]
    pub(crate) fn issue_op(&mut self, op: &OpTiming) {
        let r = &self.ready;
        let [a, b, c] = op.srcs;
        let ready = r[a as usize % READY_ALLOC]
            .max(r[b as usize % READY_ALLOC])
            .max(r[c as usize % READY_ALLOC]);
        let latency = self.lat[op.class as usize] + std::mem::take(&mut self.pending_miss);
        let t = self.schedule(ready, latency);
        self.ready[op.dst as usize % READY_ALLOC] = t + latency;
    }

    /// Issues one instruction reading `srcs`, writing `dst` after
    /// `latency` cycles. Returns the issue cycle. The per-instruction
    /// interface the reference timing run drives
    /// (`crate::timing_reference`).
    #[cfg(any(test, feature = "legacy"))]
    pub(crate) fn issue(&mut self, srcs: &[Preg], dst: Option<Preg>, latency: u64) -> u64 {
        let ready = srcs
            .iter()
            .map(|r| self.ready[entry(*r) as usize])
            .max()
            .unwrap_or(0);
        let t = self.schedule(ready, latency);
        if let Some(d) = dst {
            self.ready[entry(d) as usize] = t + latency;
        }
        t
    }

    /// Fetches and schedules one instruction whose sources are ready at
    /// cycle `ready`, retiring it `latency` cycles after issue. Returns
    /// the issue cycle.
    #[inline(always)]
    fn schedule(&mut self, ready: u64, latency: u64) -> u64 {
        // --- fetch: bandwidth-limited and gated on a free ROB slot.
        let rob_free_at = self.retire[self.rob_head];
        if rob_free_at > self.fetch_cycle {
            self.fetch_cycle = rob_free_at;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle >= self.issue_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        self.fetched_this_cycle += 1;
        let fetch_cycle = self.fetch_cycle;

        // --- issue: dataflow, slot-limited.
        // The ring freezes cycles older than max_cycle - RING; never
        // schedule below that floor.
        let floor = self.max_cycle.saturating_sub(RING - 1);
        let mut t = fetch_cycle.max(ready).max(floor);
        let width = self.issue_width;
        loop {
            let c = self.slot_count(t);
            if *c < width {
                *c += 1;
                break;
            }
            t += 1;
        }
        self.max_cycle = self.max_cycle.max(t);
        // --- retire: in order.
        self.last_retire = self.last_retire.max(t + latency);
        self.retire[self.rob_head] = self.last_retire;
        self.rob_head += 1;
        if self.rob_head == self.retire.len() {
            self.rob_head = 0;
        }
        t
    }

    /// Accesses the data cache at `addr`, returning the extra miss latency.
    pub(crate) fn mem_access(&mut self, addr: u64) -> u64 {
        if self.cache.access(addr) {
            0
        } else {
            self.miss_penalty
        }
    }

    /// Accesses the data cache for the load about to issue; a miss adds
    /// its penalty to that load's latency.
    #[inline]
    pub(crate) fn load(&mut self, addr: u64) {
        self.pending_miss = self.mem_access(addr);
    }

    /// Accounts for a taken conditional branch: any configured penalty
    /// stalls the front end (models a redirect bubble).
    pub(crate) fn taken_branch(&mut self) {
        if self.taken_branch_penalty > 0 {
            self.fetch_cycle += 1 + self.taken_branch_penalty;
            self.fetched_this_cycle = 0;
        }
    }

    /// Total cycles elapsed so far (including in-flight results).
    pub(crate) fn cycles(&self) -> u64 {
        let ready = self.ready[..READY].iter().copied().max().unwrap_or(0);
        (self.max_cycle + 1).max(ready)
    }

    /// Cache hit count.
    pub(crate) fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache miss count.
    pub(crate) fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timing {
        Timing::new(&TimingConfig::default())
    }

    #[test]
    fn independent_ops_pack_into_issue_width() {
        let mut tm = t();
        for i in 0..8u8 {
            tm.issue(&[], Some(Preg::int(i)), 1);
        }
        assert!(tm.cycles() <= 3, "cycles = {}", tm.cycles());
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut tm = t();
        for _ in 0..8 {
            tm.issue(&[Preg::int(2)], Some(Preg::int(2)), 1);
        }
        assert!(tm.cycles() >= 8, "cycles = {}", tm.cycles());
    }

    #[test]
    fn independent_shadow_work_overlaps_the_original_chain() {
        // The key OoO effect: a dependent chain plus independent shadow
        // instructions costs no more than the chain alone (fetch permitting).
        let mut solo = t();
        for _ in 0..100 {
            solo.issue(&[Preg::int(2)], Some(Preg::int(2)), 1);
        }
        let mut dup = t();
        for _ in 0..100 {
            dup.issue(&[Preg::int(2)], Some(Preg::int(2)), 1);
            dup.issue(&[Preg::int(3)], Some(Preg::int(3)), 1);
            dup.issue(&[Preg::int(4)], Some(Preg::int(4)), 1);
        }
        let ratio = dup.cycles() as f64 / solo.cycles() as f64;
        assert!(ratio < 1.15, "ratio = {ratio}");
    }

    #[test]
    fn fetch_width_bounds_ipc() {
        // 1000 fully independent ops on a 5-wide machine: ≥ 200 cycles.
        let mut tm = t();
        for _ in 0..1000 {
            tm.issue(&[], None, 1);
        }
        assert!(tm.cycles() >= 200, "cycles = {}", tm.cycles());
        assert!(tm.cycles() <= 210, "cycles = {}", tm.cycles());
    }

    #[test]
    fn misses_add_latency_through_dependences() {
        let mut tm = t();
        let pen = tm.mem_access(0x100_0000); // cold miss
        assert_eq!(pen, CacheConfig::default().miss_penalty);
        tm.issue(&[], Some(Preg::int(2)), 3 + pen);
        let pen2 = tm.mem_access(0x100_0000);
        assert_eq!(pen2, 0, "second access hits");
        tm.issue(&[Preg::int(2)], Some(Preg::int(3)), 3);
        assert!(tm.cycles() >= 3 + CacheConfig::default().miss_penalty + 3);
    }

    #[test]
    fn taken_branch_penalty_stalls_fetch() {
        let mut base = t();
        let mut pen = Timing::new(&TimingConfig {
            taken_branch_penalty: 3,
            ..TimingConfig::default()
        });
        for _ in 0..10 {
            for tm in [&mut base, &mut pen] {
                tm.issue(&[], None, 1);
                tm.taken_branch();
            }
        }
        assert!(pen.cycles() > base.cycles() + 20);
    }
}
