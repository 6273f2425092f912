//! HBM 1.0 memory model (Ramulator substitute).
//!
//! The paper attaches NvWa to 256 GB/s HBM 1.0 and simulates it with
//! Ramulator. For the scheduler study, the behaviours that matter are
//! (a) a fixed access latency, (b) finite per-channel bandwidth creating
//! queueing delay under contention, and (c) the 7 pJ/bit access energy used
//! in the power model. This module models exactly those: each channel is a
//! FIFO server with a fixed service interval per 64-byte transaction.

use std::collections::VecDeque;

use crate::Cycle;

/// HBM configuration.
///
/// The defaults model HBM 1.0 at a 1 GHz accelerator clock: 8 channels ×
/// 32 GB/s = 256 GB/s aggregate, i.e. one 64-byte transaction per channel
/// every 2 cycles, with 100 ns (100-cycle) access latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Fixed access latency in cycles (row activation + CAS + transfer).
    pub latency: Cycle,
    /// Cycles between transaction issues on one channel (bandwidth bound).
    pub service_interval: Cycle,
    /// Bytes per transaction.
    pub transaction_bytes: u64,
    /// Access energy in picojoules per bit (7 pJ/bit for HBM 1.0, as the
    /// paper cites).
    pub energy_pj_per_bit: f64,
}

impl Default for HbmConfig {
    fn default() -> HbmConfig {
        HbmConfig {
            channels: 8,
            latency: 100,
            service_interval: 2,
            transaction_bytes: 64,
            energy_pj_per_bit: 7.0,
        }
    }
}

impl HbmConfig {
    /// Aggregate bandwidth in bytes per cycle.
    pub fn bandwidth_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * self.transaction_bytes as f64 / self.service_interval as f64
    }
}

/// Scheduling history older than this many cycles behind the newest
/// booking is forgotten. Replayed chains span well under 10⁶ cycles, so a
/// request is never timestamped this far behind one already booked.
const HORIZON_CYCLES: u64 = 10_000_000;

/// The HBM device state.
///
/// Each channel serves one transaction per `service_interval` cycles; the
/// schedule is kept as a bitmap of occupied service *slots*, so a request
/// timestamped in the future never blocks earlier idle slots (requests are
/// issued by replaying unit access chains, which interleave in wall-clock
/// order only approximately).
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    channels: Vec<SlotMap>,
    newest_slot: u64,
    requests: u64,
    queue_delay_total: u64,
}

/// One channel's booked service slots: bit `i` of `words[w]` is slot
/// `base + 64·w + i`. Words wholly behind the horizon are dropped from the
/// front, so memory stays bounded on arbitrarily long runs.
#[derive(Debug, Clone, Default)]
struct SlotMap {
    base: u64,
    words: VecDeque<u64>,
}

impl SlotMap {
    /// Books and returns the first free slot at or after `first`.
    ///
    /// # Panics
    ///
    /// Panics if `first` lies behind the retained window: its occupancy
    /// has been forgotten, so no exact answer exists.
    fn book(&mut self, first: u64) -> u64 {
        assert!(
            first >= self.base,
            "HBM request at slot {first} is behind the retained schedule window (slot {})",
            self.base
        );
        let offset = first - self.base;
        let mut w = (offset / 64) as usize;
        let mut free_mask = !0u64 << (offset % 64);
        loop {
            if w >= self.words.len() {
                self.words.resize(w + 1, 0);
            }
            let free = !self.words[w] & free_mask;
            if free != 0 {
                let bit = free.trailing_zeros();
                self.words[w] |= 1 << bit;
                return self.base + w as u64 * 64 + u64::from(bit);
            }
            w += 1;
            free_mask = !0;
        }
    }

    /// Forgets every word whose slots all lie before `cutoff`.
    fn forget_before(&mut self, cutoff: u64) {
        while self.base + 64 <= cutoff {
            if self.words.pop_front().is_none() {
                self.base = cutoff / 64 * 64;
                return;
            }
            self.base += 64;
        }
    }
}

impl Hbm {
    /// Creates a device from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `service_interval == 0`.
    pub fn new(config: HbmConfig) -> Hbm {
        assert!(config.channels > 0, "need at least one channel");
        assert!(
            config.service_interval > 0,
            "service interval must be positive"
        );
        Hbm {
            channels: vec![SlotMap::default(); config.channels],
            config,
            newest_slot: 0,
            requests: 0,
            queue_delay_total: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HbmConfig {
        &self.config
    }

    /// Issues a read of one transaction at block address `addr`, returning
    /// the cycle its data arrives.
    ///
    /// The channel is selected by address interleaving; a busy channel
    /// queues the request (FIFO).
    ///
    /// # Panics
    ///
    /// Panics if `now` is so far (over 10⁷ cycles) behind the newest
    /// booking that the schedule around it has been forgotten.
    pub fn request(&mut self, now: Cycle, addr: u64) -> Cycle {
        let service = self.config.service_interval;
        let channel = &mut self.channels[(addr as usize) % self.config.channels];
        // First service slot whose start is not before `now`.
        let first = now.div_ceil(service);
        channel.forget_before(
            self.newest_slot
                .max(first)
                .saturating_sub(HORIZON_CYCLES / service),
        );
        let slot = channel.book(first);
        self.newest_slot = self.newest_slot.max(slot);
        self.requests += 1;
        let start = slot * service;
        self.queue_delay_total += start - now;
        start + self.config.latency
    }

    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total queueing delay in cycles summed over all requests (the
    /// integral behind [`Hbm::mean_queue_delay`]; exported as the
    /// `hbm.queue_delay_cycles` telemetry counter).
    pub fn total_queue_delay(&self) -> u64 {
        self.queue_delay_total
    }

    /// Mean queueing delay (cycles spent waiting for a channel slot).
    pub fn mean_queue_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_delay_total as f64 / self.requests as f64
        }
    }

    /// Total bytes transferred.
    pub fn bytes_transferred(&self) -> u64 {
        self.requests * self.config.transaction_bytes
    }

    /// Total access energy in joules.
    pub fn energy_joules(&self) -> f64 {
        self.bytes_transferred() as f64 * 8.0 * self.config.energy_pj_per_bit * 1e-12
    }

    /// Average power in watts over `total_cycles` at 1 GHz.
    pub fn average_power_w(&self, total_cycles: Cycle) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.energy_joules() / (total_cycles as f64 * 1e-9)
        }
    }

    /// Bandwidth utilization over `total_cycles` (0.0–1.0).
    pub fn bandwidth_utilization(&self, total_cycles: Cycle) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.bytes_transferred() as f64
            / (self.config.bandwidth_bytes_per_cycle() * total_cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn uncontended_request_completes_after_latency() {
        let mut hbm = Hbm::new(HbmConfig::default());
        assert_eq!(hbm.request(1000, 0), 1100);
        assert_eq!(hbm.mean_queue_delay(), 0.0);
    }

    #[test]
    fn same_channel_requests_queue() {
        let mut hbm = Hbm::new(HbmConfig::default());
        // Addresses 0 and 8 hit channel 0 with 8 channels.
        let a = hbm.request(0, 0);
        let b = hbm.request(0, 8);
        assert_eq!(a, 100);
        assert_eq!(b, 102); // waited one service interval
        assert!(hbm.mean_queue_delay() > 0.0);
    }

    #[test]
    fn different_channels_do_not_interfere() {
        let mut hbm = Hbm::new(HbmConfig::default());
        let a = hbm.request(0, 0);
        let b = hbm.request(0, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn channel_frees_over_time() {
        let mut hbm = Hbm::new(HbmConfig::default());
        let _ = hbm.request(0, 0);
        // Long after the service interval, no queueing.
        assert_eq!(hbm.request(50, 8), 150);
    }

    #[test]
    fn saturation_throughput_matches_bandwidth() {
        let config = HbmConfig::default();
        let mut hbm = Hbm::new(config);
        // Fire 8000 requests at cycle 0 round-robin across channels.
        let mut last = 0;
        for i in 0..8000u64 {
            last = last.max(hbm.request(0, i));
        }
        // 1000 requests per channel, service 2 → drains in ~2000 cycles.
        assert!(last >= 100 + 999 * 2);
        assert!(last <= 100 + 1000 * 2);
        let busy = last - 100;
        assert!((hbm.bandwidth_utilization(busy) - 1.0).abs() < 0.01);
    }

    #[test]
    fn energy_accounting() {
        let mut hbm = Hbm::new(HbmConfig::default());
        for i in 0..1000u64 {
            let _ = hbm.request(i * 10, i);
        }
        // 1000 × 64 B × 8 bit × 7 pJ = 3.584 µJ.
        let expected = 1000.0 * 64.0 * 8.0 * 7.0e-12;
        assert!((hbm.energy_joules() - expected).abs() < 1e-15);
        assert_eq!(hbm.bytes_transferred(), 64_000);
    }

    #[test]
    fn default_models_256_gb_per_s() {
        let c = HbmConfig::default();
        // 256 bytes/cycle at 1 GHz == 256 GB/s.
        assert_eq!(c.bandwidth_bytes_per_cycle(), 256.0);
    }

    #[test]
    fn queue_delay_grows_with_same_channel_conflict_depth() {
        // Bursts of k simultaneous requests to ONE channel: the k-th
        // waits (k-1) service intervals, so mean delay must grow
        // monotonically (and match the closed form (k-1)/2 · interval).
        let mut previous = -1.0;
        for burst in [1u64, 2, 4, 8, 16, 32] {
            let mut hbm = Hbm::new(HbmConfig::default());
            for _ in 0..burst {
                let _ = hbm.request(0, 0); // all on channel 0
            }
            let mean = hbm.mean_queue_delay();
            assert!(
                mean > previous,
                "burst {burst}: mean {mean} not above {previous}"
            );
            let interval = hbm.config().service_interval as f64;
            let expected = (burst - 1) as f64 / 2.0 * interval;
            assert!(
                (mean - expected).abs() < 1e-9,
                "burst {burst}: mean {mean} vs closed form {expected}"
            );
            previous = mean;
        }
    }

    #[test]
    fn disjoint_channel_streams_stay_flat() {
        // The same offered load spread one-request-per-channel sees zero
        // queueing at any burst count: channels are independent servers.
        let channels = HbmConfig::default().channels as u64;
        for bursts in [1u64, 4, 16, 64] {
            let mut hbm = Hbm::new(HbmConfig::default());
            let interval = hbm.config().service_interval;
            for b in 0..bursts {
                // One request per channel per service slot: conflict-free.
                let now = b * interval;
                for ch in 0..channels {
                    let done = hbm.request(now, ch);
                    assert_eq!(done, now + hbm.config().latency);
                }
            }
            assert_eq!(
                hbm.total_queue_delay(),
                0,
                "disjoint channels must not queue (bursts={bursts})"
            );
        }
        // Control: the identical request count on a single channel queues.
        let mut hot = Hbm::new(HbmConfig::default());
        for _ in 0..channels {
            let _ = hot.request(0, 0);
        }
        assert!(hot.total_queue_delay() > 0);
    }

    #[test]
    fn access_energy_matches_transaction_counts_exactly() {
        let config = HbmConfig::default();
        for n in [0u64, 1, 17, 1000] {
            let mut hbm = Hbm::new(config);
            for i in 0..n {
                let _ = hbm.request(i * 3, i * 7 + 1);
            }
            assert_eq!(hbm.requests(), n);
            assert_eq!(hbm.bytes_transferred(), n * config.transaction_bytes);
            let expected_j =
                (n * config.transaction_bytes) as f64 * 8.0 * config.energy_pj_per_bit * 1e-12;
            assert!(
                (hbm.energy_joules() - expected_j).abs() <= 1e-18,
                "n={n}: {} vs {expected_j}",
                hbm.energy_joules()
            );
        }
    }

    /// The unpruned reference schedule: one ordered set of booked slots
    /// per channel, probed one slot at a time.
    struct NaiveHbm {
        config: HbmConfig,
        booked: Vec<BTreeSet<u64>>,
        requests: u64,
        queue_delay_total: u64,
    }

    impl NaiveHbm {
        fn new(config: HbmConfig) -> NaiveHbm {
            NaiveHbm {
                booked: vec![BTreeSet::new(); config.channels],
                config,
                requests: 0,
                queue_delay_total: 0,
            }
        }

        fn request(&mut self, now: Cycle, addr: u64) -> Cycle {
            let service = self.config.service_interval;
            let booked = &mut self.booked[(addr as usize) % self.config.channels];
            let mut slot = now.div_ceil(service);
            while !booked.insert(slot) {
                slot += 1;
            }
            self.requests += 1;
            self.queue_delay_total += slot * service - now;
            slot * service + self.config.latency
        }
    }

    /// splitmix64: a seeded stream of test inputs.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Replays `n` requests with out-of-order timestamps through both
    /// models; `hot` of every 256 requests go to channel 0, the rest are
    /// spread over all channels. Returns channel 0's booking count.
    fn assert_matches_naive(seed: u64, n: u64, hot: u64, cycles_per_request: u64) -> usize {
        let config = HbmConfig::default();
        let mut fast = Hbm::new(config);
        let mut naive = NaiveHbm::new(config);
        let mut rng = seed;
        for i in 0..n {
            let clock = i * cycles_per_request;
            // Up to 2 048 cycles behind or ahead of the stream's clock.
            let now = (clock + mix(&mut rng) % 4096).saturating_sub(2048);
            let addr = if mix(&mut rng) % 256 < hot {
                8 * (mix(&mut rng) % 1024)
            } else {
                mix(&mut rng) % (1 << 20)
            };
            assert_eq!(
                fast.request(now, addr),
                naive.request(now, addr),
                "seed {seed}: request {i} (now {now}, addr {addr})"
            );
        }
        assert_eq!(fast.requests(), naive.requests);
        assert_eq!(fast.total_queue_delay(), naive.queue_delay_total);
        naive.booked[0].len()
    }

    #[test]
    fn bitmap_schedule_matches_unpruned_reference() {
        // Channel 0 carries ~0.8 of its bandwidth and books past 2^17
        // slots (where the old schedule started pruning).
        let hot_bookings = assert_matches_naive(1, 360_000, 80, 1);
        assert!(hot_bookings > 1 << 17, "{hot_bookings} channel-0 bookings");
        // Uniform and saturated streams over all eight channels.
        for seed in 2..5 {
            assert_matches_naive(seed, 40_000, 0, 1);
            assert_matches_naive(seed, 4_000, 0, 0);
        }
    }

    #[test]
    fn long_runs_keep_a_bounded_window() {
        // 10⁸ cycles of sparse traffic: the schedule forgets words behind
        // the horizon instead of growing, and still answers exactly.
        assert_matches_naive(7, 100_000, 32, 1000);
        let mut hbm = Hbm::new(HbmConfig::default());
        for i in 0..100_000u64 {
            let _ = hbm.request(i * 1000, i);
        }
        let window_words = (HORIZON_CYCLES / 2 / 64 + 2) as usize;
        assert!(hbm.channels.iter().all(|c| c.words.len() <= window_words));
    }

    #[test]
    #[should_panic(expected = "behind the retained schedule window")]
    fn probe_behind_the_window_panics() {
        let mut hbm = Hbm::new(HbmConfig::default());
        let _ = hbm.request(3 * HORIZON_CYCLES, 0);
        let _ = hbm.request(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = Hbm::new(HbmConfig {
            channels: 0,
            ..HbmConfig::default()
        });
    }
}
