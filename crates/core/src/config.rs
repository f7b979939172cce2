//! Coscheduling configuration: schemes, combinations, and enhancements.

use cosched_sched::MachineConfig;
use cosched_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The two basic coscheduling schemes of §IV-B. Each machine is configured
/// *locally* with one of them — §IV-E1: "an individual machine needs to be
/// configured only with its local scheme, without knowing the remote
/// configuration".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// A ready job whose mate is not ready keeps its nodes, blocking them
    /// from everyone else until the mate is ready. Minimises pair
    /// synchronization time; costs service units.
    Hold,
    /// A ready job whose mate is not ready gives the nodes back and lets the
    /// scheduler run something else. Gentle on utilization; the pair may
    /// yield alternately many times before aligning.
    Yield,
}

impl Scheme {
    /// One-letter label used in figure axes ("H"/"Y").
    pub fn letter(self) -> &'static str {
        match self {
            Scheme::Hold => "H",
            Scheme::Yield => "Y",
        }
    }
}

/// A combination of local schemes for the two machines — the four
/// configurations evaluated in §IV-D and throughout §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeCombo(pub Scheme, pub Scheme);

impl SchemeCombo {
    /// Hold on both machines.
    pub const HH: SchemeCombo = SchemeCombo(Scheme::Hold, Scheme::Hold);
    /// Hold on machine 0, yield on machine 1.
    pub const HY: SchemeCombo = SchemeCombo(Scheme::Hold, Scheme::Yield);
    /// Yield on machine 0, hold on machine 1.
    pub const YH: SchemeCombo = SchemeCombo(Scheme::Yield, Scheme::Hold);
    /// Yield on both machines.
    pub const YY: SchemeCombo = SchemeCombo(Scheme::Yield, Scheme::Yield);

    /// All four combinations, in the order the paper's figures list them.
    pub const ALL: [SchemeCombo; 4] = [Self::HH, Self::HY, Self::YH, Self::YY];

    /// The figure label ("HH", "HY", "YH", "YY").
    pub fn label(self) -> String {
        format!("{}{}", self.0.letter(), self.1.letter())
    }

    /// Scheme of machine `m` (0 or 1).
    pub fn of(self, m: usize) -> Scheme {
        match m {
            0 => self.0,
            1 => self.1,
            _ => panic!("coupled systems have machines 0 and 1, not {m}"),
        }
    }
}

/// Per-machine coscheduling configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoschedConfig {
    /// Master switch (Algorithm 1, line 1). Disabled ⇒ every ready job
    /// starts normally; this is the paper's baseline.
    pub enabled: bool,
    /// The locally configured scheme.
    pub scheme: Scheme,
    /// Deadlock breaker (§IV-E1): a held job releases its nodes after this
    /// period, re-entering the queue demoted to lowest priority for that
    /// instant. `None` disables the breaker (used to demonstrate the
    /// hold-hold deadlock). The paper's experiments use 20 minutes.
    pub release_period: Option<SimDuration>,
    /// Utilization guard (§IV-E2): if holding this job would push the held
    /// fraction of capacity above the threshold, the job yields instead.
    pub max_held_fraction: Option<f64>,
    /// Starvation guard (§IV-E2): after this many yields a job escalates to
    /// hold.
    pub max_yields_before_hold: Option<u32>,
}

impl CoschedConfig {
    /// Coscheduling off — the baseline configuration.
    pub fn disabled() -> Self {
        CoschedConfig {
            enabled: false,
            scheme: Scheme::Yield,
            release_period: None,
            max_held_fraction: None,
            max_yields_before_hold: None,
        }
    }

    /// The paper's standard experimental configuration for `scheme`:
    /// coscheduling on, 20-minute hold-release period, and the deployed
    /// held-node threshold of §IV-E2 ("we enforce a maximum threshold for
    /// the proportion of nodes… the job will yield instead of hold"), set
    /// to half the machine so "the system can have at least a number of
    /// nodes able to be consumed normally". The yield-count escalation is
    /// left off ("the other enhancements turned out to be optional").
    pub fn paper(scheme: Scheme) -> Self {
        CoschedConfig {
            enabled: true,
            scheme,
            release_period: Some(SimDuration::from_mins(20)),
            max_held_fraction: Some(0.5),
            max_yields_before_hold: None,
        }
    }

    /// Builder: set or clear the hold-release period.
    pub fn with_release_period(mut self, period: Option<SimDuration>) -> Self {
        self.release_period = period;
        self
    }

    /// Builder: cap the held-node fraction.
    pub fn with_max_held_fraction(mut self, frac: Option<f64>) -> Self {
        if let Some(f) = frac {
            assert!(
                (0.0..=1.0).contains(&f),
                "held fraction cap {f} outside [0,1]"
            );
        }
        self.max_held_fraction = frac;
        self
    }

    /// Builder: cap yields before escalating to hold.
    pub fn with_max_yields(mut self, yields: Option<u32>) -> Self {
        self.max_yields_before_hold = yields;
        self
    }
}

/// Full configuration of a coupled system: two machines and their local
/// coscheduling settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledConfig {
    /// The two resource-manager configurations.
    pub machines: [MachineConfig; 2],
    /// Each machine's local coscheduling configuration.
    pub cosched: [CoschedConfig; 2],
    /// Safety valve for the event loop: abort after this many events
    /// (live-lock guard; generously above anything a month-long trace
    /// produces).
    pub max_events: u64,
}

/// Configuration of a coupled system of k ≥ 2 machines, slot `m` of each
/// vector describing machine `m`. A [`CoupledConfig`] is the k = 2 case.
#[derive(Debug, Clone, PartialEq)]
pub struct NwayConfig {
    /// One resource-manager configuration per machine.
    pub machines: Vec<MachineConfig>,
    /// One local coscheduling configuration per machine.
    pub cosched: Vec<CoschedConfig>,
    /// Event-loop safety valve (see [`CoupledConfig::max_events`]).
    pub max_events: u64,
}

impl From<CoupledConfig> for NwayConfig {
    fn from(c: CoupledConfig) -> Self {
        NwayConfig {
            machines: c.machines.into(),
            cosched: c.cosched.into(),
            max_events: c.max_events,
        }
    }
}

impl CoupledConfig {
    /// The paper's §V-A setup: Intrepid (machine 0) coupled with Eureka
    /// (machine 1), WFP + backfilling on both, the given scheme combination,
    /// 20-minute hold release.
    pub fn anl(combo: SchemeCombo) -> Self {
        use cosched_workload::MachineId;
        CoupledConfig {
            machines: [
                MachineConfig::intrepid(MachineId(0)),
                MachineConfig::eureka(MachineId(1)),
            ],
            cosched: [
                CoschedConfig::paper(combo.of(0)),
                CoschedConfig::paper(combo.of(1)),
            ],
            max_events: 50_000_000,
        }
    }

    /// Same machines, coscheduling disabled — the baseline.
    pub fn anl_baseline() -> Self {
        let mut cfg = Self::anl(SchemeCombo::YY);
        cfg.cosched = [CoschedConfig::disabled(), CoschedConfig::disabled()];
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_labels() {
        assert_eq!(SchemeCombo::HH.label(), "HH");
        assert_eq!(SchemeCombo::HY.label(), "HY");
        assert_eq!(SchemeCombo::YH.label(), "YH");
        assert_eq!(SchemeCombo::YY.label(), "YY");
        assert_eq!(SchemeCombo::ALL.len(), 4);
    }

    #[test]
    fn combo_of_indexes_machines() {
        assert_eq!(SchemeCombo::HY.of(0), Scheme::Hold);
        assert_eq!(SchemeCombo::HY.of(1), Scheme::Yield);
    }

    #[test]
    #[should_panic(expected = "machines 0 and 1")]
    fn combo_of_rejects_third_machine() {
        SchemeCombo::HH.of(2);
    }

    #[test]
    fn paper_config_matches_section_v() {
        let c = CoschedConfig::paper(Scheme::Hold);
        assert!(c.enabled);
        assert_eq!(c.release_period, Some(SimDuration::from_mins(20)));
        assert_eq!(c.max_held_fraction, Some(0.5));
        assert_eq!(c.max_yields_before_hold, None);
    }

    #[test]
    fn disabled_config_is_off() {
        assert!(!CoschedConfig::disabled().enabled);
    }

    #[test]
    fn builders_set_enhancements() {
        let c = CoschedConfig::paper(Scheme::Yield)
            .with_max_held_fraction(Some(0.5))
            .with_max_yields(Some(10))
            .with_release_period(None);
        assert_eq!(c.max_held_fraction, Some(0.5));
        assert_eq!(c.max_yields_before_hold, Some(10));
        assert_eq!(c.release_period, None);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn held_fraction_cap_validated() {
        CoschedConfig::paper(Scheme::Hold).with_max_held_fraction(Some(1.5));
    }

    #[test]
    fn anl_config_shape() {
        let c = CoupledConfig::anl(SchemeCombo::HY);
        assert_eq!(c.machines[0].capacity, 40_960);
        assert_eq!(c.machines[1].capacity, 100);
        assert_eq!(c.cosched[0].scheme, Scheme::Hold);
        assert_eq!(c.cosched[1].scheme, Scheme::Yield);
        let b = CoupledConfig::anl_baseline();
        assert!(!b.cosched[0].enabled && !b.cosched[1].enabled);
    }
}
