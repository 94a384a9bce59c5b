//! A small set-associative L1 data cache model for the timing simulator.

/// Cache geometry and miss cost.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Extra cycles a miss adds to the access latency.
    pub miss_penalty: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // A PPC970-ish L1-D: 32 KiB, 2-way in hardware; 4-way here keeps the
        // model's conflict behaviour mild, which is all the figures need.
        CacheConfig {
            size: 32 * 1024,
            assoc: 4,
            line: 64,
            miss_penalty: 24,
        }
    }
}

/// LRU set-associative cache. Tracks hits/misses; data lives in [`super::Memory`].
///
/// Ways are stored in one flat pre-sized array indexed `set * assoc + way`
/// rather than a `Vec` per set: machine clones (checkpoint replay builds
/// one machine per campaign worker) copy a single allocation, and lookups
/// stay on one cache line per set. A way with stamp `0` is empty — real
/// stamps start at `1` because `access` pre-increments.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<(u64, u64)>, // (tag, last-used stamp); stamp 0 = empty way
    /// `num_sets - 1`: the set count is a power of two, so a line's set is
    /// its low bits and its tag the rest.
    set_mask: u64,
    set_shift: u32,
    line_shift: u32,
    assoc: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size).
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two() && cfg.line > 0);
        assert!(cfg.assoc > 0 && cfg.size >= cfg.line * cfg.assoc as u64);
        let num_sets = cfg.size / cfg.line / cfg.assoc as u64;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            sets: vec![(0, 0); num_sets as usize * cfg.assoc],
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            line_shift: cfg.line.trailing_zeros(),
            assoc: cfg.assoc,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Touches `addr`; returns `true` on a hit, allocating on miss.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = &mut self.sets[set * self.assoc..][..self.assoc];
        if let Some(w) = ways.iter_mut().find(|(t, s)| *s != 0 && *t == tag) {
            w.1 = self.stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Empty ways carry stamp 0, so the minimum-stamp victim fills the
        // set in order before evicting the true LRU way.
        let victim = ways
            .iter_mut()
            .min_by_key(|(_, s)| *s)
            .expect("positive associativity");
        *victim = (tag, self.stamp);
        false
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(&CacheConfig::default());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cfg = CacheConfig {
            size: 4 * 64,
            assoc: 2,
            line: 64,
            miss_penalty: 10,
        };
        let mut c = Cache::new(&cfg);
        // Two sets; addresses mapping to set 0: line numbers 0, 2, 4...
        let a = 0u64; // set 0
        let b = 2 * 64; // set 0
        let d = 4 * 64; // set 0
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(!c.access(d)); // evicts a
        assert!(c.access(d));
        assert!(c.access(b));
        assert!(!c.access(a), "a was evicted");
    }

    /// Address 0 decodes to tag 0, which must not falsely hit an empty way
    /// (empty ways store tag 0 with the stamp-0 sentinel).
    #[test]
    fn tag_zero_does_not_hit_an_empty_way() {
        let mut c = Cache::new(&CacheConfig::default());
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut c = Cache::new(&CacheConfig::default());
        for i in 0..1000u64 {
            c.access(0x10_0000 + i * 64);
        }
        assert_eq!(c.misses(), 1000);
    }
}
