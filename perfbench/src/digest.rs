//! Deterministic output digests: FNV-1a over the counters and job records a
//! run produces, so a change that alters behaviour changes the digest.

use cosched_core::SimulationReport;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of everything deterministic in a simulation report: counters,
/// per-machine scheduler statistics and every completed job's record.
pub fn report_digest(r: &SimulationReport) -> u64 {
    let mut d = Digest::default();
    d.u64(r.events)
        .u64(r.queue_high_water as u64)
        .u64(r.events_cancelled)
        .u64(r.horizon.as_secs())
        .u64(u64::from(r.deadlocked))
        .u64(u64::from(r.aborted))
        .u64(r.forced_releases)
        .u64(r.rendezvous.anchored as u64)
        .u64(r.rendezvous.direct as u64)
        .u64(r.rendezvous.independent as u64);
    let s = &r.stats;
    for v in [
        s.holds,
        s.yields,
        s.degradations,
        s.escalations,
        s.release_sweeps,
        s.rpc_calls,
        s.rpc_timeouts,
    ] {
        d.u64(v);
    }
    for m in 0..2 {
        let st = &r.sched_stats[m];
        for v in [
            st.iterations,
            st.picks,
            st.backfill_hits,
            st.drains_engaged,
            st.alloc_fail_capacity,
            st.alloc_fail_fragmentation,
        ] {
            d.u64(v);
        }
        d.u64(r.unfinished[m] as u64);
        for rec in &r.records[m] {
            d.u64(rec.id.0)
                .u64(rec.size)
                .u64(rec.start.as_secs())
                .u64(rec.end.as_secs());
        }
    }
    for off in &r.pair_offsets {
        d.u64(off.as_secs());
    }
    d.finish()
}
