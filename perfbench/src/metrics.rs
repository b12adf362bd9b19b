//! Metric collection, summary statistics and the simulated-model
//! counters shared by every workload.

use gpgpu_sim::SimStats;

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Quantile `q` in `[0, 1]` of `xs`, interpolated linearly between the
/// closest ranks (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (mean of the middle pair for even counts; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive ratios (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over a sequence of byte strings: the `sim_digest` of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one run: its full statistics and, when known, the final
    /// global-memory content hash.
    pub fn add_run(&mut self, label: &str, stats: &SimStats, mem_hash: Option<u64>) {
        self.add(label.as_bytes());
        self.add(format!("{stats:?}").as_bytes());
        if let Some(h) = mem_hash {
            self.add(&h.to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Mean per-core CTA limit LCS decided over `runs` (a kept hardware
/// maximum, `u32::MAX`, counts as the configured per-core CTA maximum).
pub fn lcs_avg_limit<'a>(runs: impl Iterator<Item = &'a Vec<u32>>) -> f64 {
    let hw = f64::from(gpgpu_sim::GpuConfig::fermi().max_ctas_per_core);
    let limits: Vec<f64> = runs
        .flatten()
        .map(|&l| if l == u32::MAX { hw } else { f64::from(l) })
        .collect();
    ratio(limits.iter().sum(), limits.len() as f64)
}

/// Peak resident set size of this process in MiB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated-model counters summed over `runs`: the `device` totals and
/// the `core_model`, `mem` and `policy.malformed_dispatches` layers.
pub fn model_layers(runs: &[&SimStats], m: &mut Metrics) {
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    let mut b = gpgpu_sim::StallBreakdown::default();
    let (mut gmem, mut replays, mut malformed) = (0u64, 0u64, 0u64);
    let mut l1 = gpgpu_mem::CacheStats::default();
    let mut l2 = gpgpu_mem::CacheStats::default();
    let mut dram = gpgpu_mem::DramStats::default();
    let (mut req, mut resp) = (
        gpgpu_mem::XbarStats::default(),
        gpgpu_mem::XbarStats::default(),
    );
    for s in runs {
        cycles += s.cycles;
        instructions += s.instructions;
        let sb = s.stall_breakdown();
        b.core_cycles += sb.core_cycles;
        b.issued_slots += sb.issued_slots;
        b.no_resident += sb.no_resident;
        b.scoreboard += sb.scoreboard;
        b.mem_pending += sb.mem_pending;
        b.exec_busy += sb.exec_busy;
        b.barrier += sb.barrier;
        b.ff_idle += sb.ff_idle;
        b.cta_resident_cycles += sb.cta_resident_cycles;
        b.warp_resident_cycles += sb.warp_resident_cycles;
        gmem += s.cores.iter().map(|c| c.gmem_transactions).sum::<u64>();
        replays += s.cores.iter().map(|c| c.shared_replays).sum::<u64>();
        malformed += s.malformed_dispatches;
        add_cache(&mut l1, &s.l1);
        add_cache(&mut l2, &s.fabric.l2);
        let d = &s.fabric.dram;
        dram.reads += d.reads;
        dram.writes += d.writes;
        dram.row_hits += d.row_hits;
        dram.row_conflicts += d.row_conflicts;
        dram.row_empty += d.row_empty;
        dram.total_latency += d.total_latency;
        dram.rejected += d.rejected;
        for (sum, x) in [
            (&mut req, &s.fabric.req_xbar),
            (&mut resp, &s.fabric.resp_xbar),
        ] {
            sum.packets += x.packets;
            sum.flits += x.flits;
            sum.rejected += x.rejected;
            sum.queue_wait += x.queue_wait;
        }
    }
    m.put("device.cycles", cycles as f64, "cycles");
    m.put("device.instructions", instructions as f64, "instr");
    m.put(
        "device.ipc",
        ratio(instructions as f64, cycles as f64),
        "instr/cycle",
    );

    let frac = |n: u64| b.slot_fraction(n);
    m.put("core_model.issued_frac", frac(b.issued_slots), "ratio");
    m.put("core_model.mem_pending_frac", frac(b.mem_pending), "ratio");
    m.put("core_model.scoreboard_frac", frac(b.scoreboard), "ratio");
    m.put("core_model.no_resident_frac", frac(b.no_resident), "ratio");
    m.put("core_model.exec_busy_frac", frac(b.exec_busy), "ratio");
    m.put("core_model.barrier_frac", frac(b.barrier), "ratio");
    m.put("core_model.ff_idle_frac", frac(b.ff_idle), "ratio");
    m.put(
        "core_model.avg_resident_ctas",
        b.avg_resident_ctas(),
        "ctas",
    );
    m.put(
        "core_model.avg_resident_warps",
        b.avg_resident_warps(),
        "warps",
    );
    m.put("core_model.gmem_transactions", gmem as f64, "count");
    m.put("core_model.shared_replays", replays as f64, "count");

    m.put("mem.l1.accesses", l1.accesses() as f64, "count");
    m.put(
        "mem.l1.hit_rate",
        ratio(l1.hits() as f64, l1.accesses() as f64),
        "ratio",
    );
    m.put("mem.l1.mshr_merges", l1.mshr_merges as f64, "count");
    m.put(
        "mem.l1.reservation_fails",
        l1.reservation_fails as f64,
        "count",
    );
    m.put("mem.xbar.req_packets", req.packets as f64, "count");
    m.put(
        "mem.xbar.req_wait_avg",
        ratio(req.queue_wait as f64, req.packets as f64),
        "cycles",
    );
    m.put(
        "mem.xbar.resp_wait_avg",
        ratio(resp.queue_wait as f64, resp.packets as f64),
        "cycles",
    );
    m.put(
        "mem.xbar.rejected",
        (req.rejected + resp.rejected) as f64,
        "count",
    );
    m.put("mem.l2.accesses", l2.accesses() as f64, "count");
    m.put(
        "mem.l2.hit_rate",
        ratio(l2.hits() as f64, l2.accesses() as f64),
        "ratio",
    );
    m.put(
        "mem.dram.accesses",
        (dram.reads + dram.writes) as f64,
        "count",
    );
    m.put("mem.dram.row_hit_rate", dram.row_hit_rate(), "ratio");
    m.put("mem.dram.avg_latency", dram.avg_latency(), "cycles");
    m.put("mem.dram.rejected", dram.rejected as f64, "count");
    m.put("policy.malformed_dispatches", malformed as f64, "count");
}

fn add_cache(sum: &mut gpgpu_mem::CacheStats, x: &gpgpu_mem::CacheStats) {
    sum.load_accesses += x.load_accesses;
    sum.load_hits += x.load_hits;
    sum.store_accesses += x.store_accesses;
    sum.store_hits += x.store_hits;
    sum.mshr_merges += x.mshr_merges;
    sum.reservation_fails += x.reservation_fails;
    sum.fills += x.fills;
    sum.writebacks += x.writebacks;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 5.0], 0.5), 2.5);
        let hundred: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.95) - 95.0).abs() < 1e-9);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn digest_depends_on_every_input() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add(b"x");
        b.add(b"y");
        assert_ne!(a, b);
    }
}
