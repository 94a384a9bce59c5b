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

use crate::cache::{Cache, CacheConfig};
use sor_ir::{Preg, RegClass, NUM_FREGS, NUM_IREGS};

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

/// The scheduler state.
#[derive(Debug, Clone)]
pub struct Timing {
    cfg: TimingConfig,
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
    iready: [u64; NUM_IREGS],
    fready: [u64; NUM_FREGS],
}

impl Timing {
    /// Creates a fresh scheduler.
    pub fn new(cfg: &TimingConfig) -> Self {
        Timing {
            cache: Cache::new(&cfg.cache),
            rob_head: 0,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            slots: vec![(u64::MAX, 0); RING as usize],
            max_cycle: 0,
            retire: vec![0; cfg.rob_size.max(1)],
            last_retire: 0,
            cfg: cfg.clone(),
            iready: [0; NUM_IREGS],
            fready: [0; NUM_FREGS],
        }
    }

    fn ready_of(&self, r: Preg) -> u64 {
        match r.class() {
            RegClass::Int => self.iready[r.index() as usize],
            RegClass::Float => self.fready[r.index() as usize],
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

    /// Issues one instruction reading `srcs`, writing `dst` after
    /// `latency` cycles. Returns the issue cycle.
    pub fn issue(&mut self, srcs: &[Preg], dst: Option<Preg>, latency: u64) -> u64 {
        // --- fetch: bandwidth-limited and gated on a free ROB slot.
        let rob_free_at = self.retire[self.rob_head];
        if rob_free_at > self.fetch_cycle {
            self.fetch_cycle = rob_free_at;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle >= self.cfg.issue_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        self.fetched_this_cycle += 1;
        let fetch_cycle = self.fetch_cycle;

        // --- issue: dataflow, slot-limited.
        let ready = srcs.iter().map(|r| self.ready_of(*r)).max().unwrap_or(0);
        // The ring freezes cycles older than max_cycle - RING; never
        // schedule below that floor.
        let floor = self.max_cycle.saturating_sub(RING - 1);
        let mut t = fetch_cycle.max(ready).max(floor);
        let width = self.cfg.issue_width;
        loop {
            let c = self.slot_count(t);
            if *c < width {
                *c += 1;
                break;
            }
            t += 1;
        }
        self.max_cycle = self.max_cycle.max(t);
        let done = t + latency;
        if let Some(d) = dst {
            match d.class() {
                RegClass::Int => self.iready[d.index() as usize] = done,
                RegClass::Float => self.fready[d.index() as usize] = done,
            }
        }
        // --- retire: in order.
        self.last_retire = self.last_retire.max(done);
        self.retire[self.rob_head] = self.last_retire;
        self.rob_head += 1;
        if self.rob_head == self.retire.len() {
            self.rob_head = 0;
        }
        t
    }

    /// Accesses the data cache at `addr`, returning the extra miss latency.
    pub fn mem_access(&mut self, addr: u64) -> u64 {
        if self.cache.access(addr) {
            0
        } else {
            self.cfg.cache.miss_penalty
        }
    }

    /// Accounts for a taken conditional branch: any configured penalty
    /// stalls the front end (models a redirect bubble).
    pub fn taken_branch(&mut self) {
        if self.cfg.taken_branch_penalty > 0 {
            self.fetch_cycle += 1 + self.cfg.taken_branch_penalty;
            self.fetched_this_cycle = 0;
        }
    }

    /// Total cycles elapsed so far (including in-flight results).
    pub fn cycles(&self) -> u64 {
        let imax = self.iready.iter().copied().max().unwrap_or(0);
        let fmax = self.fready.iter().copied().max().unwrap_or(0);
        (self.max_cycle + 1).max(imax).max(fmax)
    }

    /// Cache hit count.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache miss count.
    pub fn cache_misses(&self) -> u64 {
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
