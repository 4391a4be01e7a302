//! Configuration of the full-network simulation harness.

use crate::admission::AdmissionPolicy;
use crate::ttl::TtlPolicy;
use pdht_gossip::GossipCodec;
use pdht_model::Scenario;
use pdht_overlay::ChurnConfig;
use pdht_sim::{LatencyModel, LogNormalLatency, UniformLatency, ZeroLatency};
use pdht_types::{PdhtError, Result, SimTime};
use pdht_zipf::PopularityShift;

/// Which indexing strategy the network runs (the three lines of Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's contribution: TTL-based query-adaptive partial indexing
    /// (Section 5.1).
    Partial,
    /// Index every key proactively (Eq. 11).
    IndexAll,
    /// No index; broadcast every query (Eq. 12).
    NoIndex,
}

/// Which structured overlay backs the index (Section 1 claims the analysis
/// applies to any "traditional DHT"; ablation A2 in `DESIGN.md` tests that
/// claim by swapping the substrate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OverlayKind {
    /// P-Grid-style binary trie — the system the paper implemented
    /// (Section 5.2).
    #[default]
    Trie,
    /// Chord-style ring with finger tables (\[StMo01\]).
    Chord,
    /// Kademlia-style XOR-metric DHT with k-bucket routing tables
    /// (\[MaMa02\]); replica groups are XOR-prefix buckets.
    Kademlia,
}

impl OverlayKind {
    /// Every substrate, in the order experiments sweep them.
    pub const ALL: [OverlayKind; 3] =
        [OverlayKind::Trie, OverlayKind::Chord, OverlayKind::Kademlia];
}

/// Which per-hop latency model drives the message-granular engine.
///
/// [`LatencyConfig::Zero`] reproduces the whole-round semantics of the
/// paper's cost model (every hop lands instantly, queries resolve in issue
/// order); the non-zero models give each forwarded message (or parallel
/// message wave) a virtual-time delay, surfacing per-query latency and
/// in-flight queries crossing churn.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LatencyConfig {
    /// Every hop lands instantly (the default; bit-compatible with the
    /// pre-message-level engine's accounting).
    #[default]
    Zero,
    /// Uniform delay in `[lo_ms, hi_ms]` milliseconds.
    Uniform {
        /// Lower bound in milliseconds.
        lo_ms: f64,
        /// Upper bound in milliseconds.
        hi_ms: f64,
    },
    /// Log-normal delay (heavy-tailed WAN RTTs) with the given median and
    /// shape.
    LogNormal {
        /// Median delay in milliseconds.
        median_ms: f64,
        /// Shape of the underlying normal (`0` = constant).
        sigma: f64,
    },
}

impl LatencyConfig {
    /// Instantiates the model (validated configurations never panic).
    pub(crate) fn build(&self) -> Box<dyn LatencyModel> {
        match *self {
            LatencyConfig::Zero => Box::new(ZeroLatency),
            LatencyConfig::Uniform { lo_ms, hi_ms } => Box::new(UniformLatency::new(
                SimTime::from_secs_f64(lo_ms / 1e3),
                SimTime::from_secs_f64(hi_ms / 1e3),
            )),
            LatencyConfig::LogNormal { median_ms, sigma } => {
                Box::new(LogNormalLatency::new(SimTime::from_secs_f64(median_ms / 1e3), sigma))
            }
        }
    }

    fn validate(&self) -> Result<()> {
        match *self {
            LatencyConfig::Zero => Ok(()),
            LatencyConfig::Uniform { lo_ms, hi_ms } => {
                if !(lo_ms.is_finite() && hi_ms.is_finite()) || lo_ms < 0.0 || hi_ms < lo_ms {
                    return Err(PdhtError::InvalidConfig {
                        param: "latency",
                        reason: format!(
                            "uniform bounds need 0 <= lo <= hi, got [{lo_ms}, {hi_ms}] ms"
                        ),
                    });
                }
                Ok(())
            }
            LatencyConfig::LogNormal { median_ms, sigma } => {
                if !median_ms.is_finite() || median_ms <= 0.0 || !sigma.is_finite() || sigma < 0.0 {
                    return Err(PdhtError::InvalidConfig {
                        param: "latency",
                        reason: format!(
                            "log-normal needs median > 0 and sigma >= 0, got ({median_ms} ms, {sigma})"
                        ),
                    });
                }
                Ok(())
            }
        }
    }
}

/// Scheduling of the per-peer background events (routing-table maintenance
/// ticks and TTL eviction sweeps).
///
/// Each active peer's maintenance fires once per round and its TTL sweep
/// once per `purge_stride` rounds, as individual events on the engine's
/// virtual-time queue. By default every peer fires at its phase's sub-round
/// instant, which reproduces the old phase-sweep accounting bit-for-bit.
/// Non-zero jitter bounds spread the peers deterministically across the
/// round (each peer keeps a fixed offset hashed from its id), which is how
/// large scenarios avoid the per-round work spike — at the cost of a
/// different (still seed-deterministic) interleaving with queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct BackgroundSchedule {
    /// Upper bound (µs) on each peer's fixed maintenance offset within its
    /// round. `0` (default) fires every peer at the maintenance phase
    /// boundary.
    pub maintenance_jitter_us: u64,
    /// Upper bound (µs) on each peer's fixed TTL-sweep offset within its
    /// round. `0` (default) fires every peer at the purge phase boundary.
    pub ttl_jitter_us: u64,
}

/// Largest allowed jitter bound: offsets must stay strictly inside the
/// one-second round (phase offsets occupy the first few µs).
pub const MAX_BACKGROUND_JITTER_US: u64 = 990_000;

impl BackgroundSchedule {
    fn validate(&self) -> Result<()> {
        for (param, v) in [
            ("background.maintenance_jitter_us", self.maintenance_jitter_us),
            ("background.ttl_jitter_us", self.ttl_jitter_us),
        ] {
            if v > MAX_BACKGROUND_JITTER_US {
                return Err(PdhtError::InvalidConfig {
                    param,
                    reason: format!(
                        "jitter must keep events inside the round (<= {MAX_BACKGROUND_JITTER_US} us), got {v}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Full harness configuration.
#[derive(Clone, Debug)]
pub struct PdhtConfig {
    /// The Table 1 parameters (possibly scaled).
    pub scenario: Scenario,
    /// Per-peer query frequency (1/s).
    pub f_qry: f64,
    /// Indexing strategy.
    pub strategy: Strategy,
    /// Structured overlay substrate holding the index.
    pub overlay: OverlayKind,
    /// keyTtl policy (only meaningful for [`Strategy::Partial`]).
    pub ttl_policy: TtlPolicy,
    /// Index admission policy (only meaningful for [`Strategy::Partial`]).
    pub admission: AdmissionPolicy,
    /// Churn model. [`ChurnConfig::none`] reproduces the analytical setting
    /// where `env` alone prices maintenance.
    pub churn: ChurnConfig,
    /// Per-hop message latency model.
    pub latency: LatencyConfig,
    /// Abandon in-flight queries older than this many (virtual) seconds;
    /// `None` disables timeouts. Only meaningful with a non-zero latency
    /// model — under [`LatencyConfig::Zero`] queries resolve instantly.
    pub query_timeout_secs: Option<f64>,
    /// Optional popularity-shift schedule (adaptivity experiments).
    pub shift: Option<PopularityShift>,
    /// Metadata keys per article (Table 1: 20).
    pub keys_per_article: u32,
    /// Parallel walkers of the unstructured search.
    pub walkers: usize,
    /// Walk budget = `walk_budget_factor × num_peers` steps.
    pub walk_budget_factor: u32,
    /// Peers purge expired entries every `purge_stride` rounds (staggered);
    /// trades gauge freshness for per-round work.
    pub purge_stride: u64,
    /// Scheduling of the per-peer background events (maintenance ticks and
    /// TTL sweeps). The default reproduces phase-sweep accounting
    /// bit-for-bit.
    pub background: BackgroundSchedule,
    /// Mean degree of the unstructured overlay graph.
    pub mean_degree: usize,
    /// Adjustment window (rounds) of the adaptive TTL controller.
    pub adaptive_window: u64,
    /// Number of execution shards (lanes) the engine partitions peers,
    /// replica groups and the query pipeline into. `1` (the default) is
    /// one lane drawing the historical un-indexed RNG streams; `S > 1`
    /// splits workload/routing/latency draws onto per-shard streams — a
    /// *semantic* knob: results depend on `S` but never on how many threads
    /// execute the shards (see `PdhtNetwork::set_threads`).
    pub shards: u32,
    /// How update-gossip packets are encoded ([`GossipCodec::Plain`], the
    /// default, keeps the legacy whole-update pushes and their accounting
    /// bit-for-bit; `Chunked`/`Rlnc` cut updates into coded chunks and
    /// classify every receive innovative vs redundant — the
    /// wasted-bandwidth columns in `SimReport` and the bench artifacts).
    pub gossip_codec: GossipCodec,
    /// Generation size for the coded gossip codecs: how many chunks an
    /// update is cut into (`1..=MAX_GENERATION`). The default,
    /// [`pdht_gossip::GENERATION_SIZE`] = 8, reproduces the fixed-size
    /// behavior bit-for-bit; larger generations trade per-push payload for
    /// coefficient-vector overhead (the bytes-per-round sweep's subject).
    /// Ignored by [`GossipCodec::Plain`].
    pub gossip_generation: usize,
    /// Master seed; every component derives its own stream from it.
    pub seed: u64,
}

impl PdhtConfig {
    /// A configuration with the defaults used throughout the experiments.
    pub fn new(scenario: Scenario, f_qry: f64, strategy: Strategy) -> PdhtConfig {
        PdhtConfig {
            scenario,
            f_qry,
            strategy,
            overlay: OverlayKind::default(),
            ttl_policy: TtlPolicy::FromModel { factor: 1.0 },
            admission: AdmissionPolicy::Always,
            churn: ChurnConfig::none(),
            latency: LatencyConfig::Zero,
            query_timeout_secs: None,
            shift: None,
            keys_per_article: 20,
            walkers: 16,
            walk_budget_factor: 6,
            purge_stride: 16,
            background: BackgroundSchedule::default(),
            mean_degree: 5,
            adaptive_window: 50,
            shards: 1,
            gossip_codec: GossipCodec::Plain,
            gossip_generation: pdht_gossip::GENERATION_SIZE,
            seed: DEFAULT_SEED,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns the first domain violation found.
    pub fn validate(&self) -> Result<()> {
        self.scenario.validate()?;
        self.latency.validate()?;
        // An infinite online mean is no churn; a finite one draws both
        // session lengths from exponentials, whose rates must be positive.
        let (on, off) = (self.churn.mean_online_secs, self.churn.mean_offline_secs);
        if on.is_nan() || on <= 0.0 {
            return Err(PdhtError::InvalidConfig {
                param: "churn.mean_online_secs",
                reason: format!("must be > 0 (infinite = no churn), got {on}"),
            });
        }
        if on.is_finite() && !(off.is_finite() && off > 0.0) {
            return Err(PdhtError::InvalidConfig {
                param: "churn.mean_offline_secs",
                reason: format!("must be finite and > 0 under churn, got {off}"),
            });
        }
        if let Some(t) = self.query_timeout_secs {
            if !t.is_finite() || t <= 0.0 {
                return Err(PdhtError::InvalidConfig {
                    param: "query_timeout_secs",
                    reason: format!("must be finite and > 0, got {t}"),
                });
            }
        }
        if !self.f_qry.is_finite() || self.f_qry < 0.0 {
            return Err(PdhtError::InvalidConfig {
                param: "f_qry",
                reason: format!("must be finite and >= 0, got {}", self.f_qry),
            });
        }
        if self.keys_per_article == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "keys_per_article",
                reason: "must be >= 1".into(),
            });
        }
        if self.walkers == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "walkers",
                reason: "need at least one walker".into(),
            });
        }
        if self.walk_budget_factor == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "walk_budget_factor",
                reason: "must be >= 1".into(),
            });
        }
        if self.purge_stride == 0 {
            return Err(PdhtError::InvalidConfig {
                param: "purge_stride",
                reason: "must be >= 1".into(),
            });
        }
        self.background.validate()?;
        if self.shards == 0 || self.shards > 256 {
            return Err(PdhtError::InvalidConfig {
                param: "shards",
                reason: format!("must be in 1..=256, got {}", self.shards),
            });
        }
        if self.gossip_generation == 0 || self.gossip_generation > pdht_gossip::MAX_GENERATION {
            return Err(PdhtError::InvalidConfig {
                param: "gossip_generation",
                reason: format!(
                    "must be in 1..={}, got {}",
                    pdht_gossip::MAX_GENERATION,
                    self.gossip_generation
                ),
            });
        }
        if self.mean_degree < 2 {
            return Err(PdhtError::InvalidConfig {
                param: "mean_degree",
                reason: "graph needs mean degree >= 2".into(),
            });
        }
        // A NaN adaptive target never compares below the hit rate (the TTL
        // would shrink to its floor every window), and the controller would
        // silently clamp one outside [0, 1].
        let bad_ttl = match self.ttl_policy {
            TtlPolicy::FromModel { factor: x } if !(x.is_finite() && x > 0.0) => {
                Some(("ttl_policy.factor", "finite and > 0", x))
            }
            TtlPolicy::Adaptive { target_hit_rate: x } if !(0.0..=1.0).contains(&x) => {
                Some(("ttl_policy.target_hit_rate", "finite and in [0, 1]", x))
            }
            _ => None,
        };
        if let Some((param, range, x)) = bad_ttl {
            let reason = format!("must be {range}, got {x}");
            return Err(PdhtError::InvalidConfig { param, reason });
        }
        if let AdmissionPolicy::SecondChance { window_rounds } = self.admission {
            if window_rounds == 0 {
                return Err(PdhtError::InvalidConfig {
                    param: "admission.window_rounds",
                    reason: "second-chance window must be >= 1 round".into(),
                });
            }
        }
        Ok(())
    }
}

/// Default master seed (arbitrary constant; override per experiment).
pub const DEFAULT_SEED: u64 = 0x9d47_11ce_2004_edb7;

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PdhtConfig {
        PdhtConfig::new(Scenario::table1_scaled(20), 1.0 / 120.0, Strategy::Partial)
    }

    #[test]
    fn defaults_validate() {
        assert!(base().validate().is_ok());
    }

    #[test]
    fn invalid_fields_are_caught() {
        let mut c = base();
        c.f_qry = -1.0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.keys_per_article = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.walkers = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.mean_degree = 1;
        assert!(c.validate().is_err());

        let mut c = base();
        c.ttl_policy = TtlPolicy::FromModel { factor: 0.0 };
        assert!(c.validate().is_err());

        for t in [f64::NAN, 1.5, -0.1] {
            let mut c = base();
            c.ttl_policy = TtlPolicy::Adaptive { target_hit_rate: t };
            match c.validate() {
                Err(PdhtError::InvalidConfig { param, .. }) => {
                    assert_eq!(param, "ttl_policy.target_hit_rate", "target {t}");
                }
                other => panic!("target {t} must be rejected, got {other:?}"),
            }
        }
        for t in [0.0, 0.85, 1.0] {
            let mut c = base();
            c.ttl_policy = TtlPolicy::Adaptive { target_hit_rate: t };
            assert!(c.validate().is_ok(), "target {t}");
        }

        let mut c = base();
        c.purge_stride = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.background.maintenance_jitter_us = MAX_BACKGROUND_JITTER_US + 1;
        assert!(c.validate().is_err());

        let mut c = base();
        c.background.ttl_jitter_us = MAX_BACKGROUND_JITTER_US;
        assert!(c.validate().is_ok());

        let mut c = base();
        c.shards = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.shards = 257;
        assert!(c.validate().is_err());

        let mut c = base();
        c.gossip_generation = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.gossip_generation = pdht_gossip::MAX_GENERATION + 1;
        assert!(c.validate().is_err());

        let mut c = base();
        c.gossip_generation = pdht_gossip::MAX_GENERATION;
        assert!(c.validate().is_ok());

        let mut c = base();
        c.shards = 256;
        assert!(c.validate().is_ok());

        let churn = |on: f64, off: f64| {
            let mut c = base();
            c.churn = ChurnConfig { mean_online_secs: on, mean_offline_secs: off };
            c.validate()
        };
        for (on, off) in [(0.0, 2400.0), (-5.0, 2400.0), (f64::NAN, 2400.0), (3600.0, 0.0)] {
            assert!(churn(on, off).is_err(), "churn ({on}, {off}) must be rejected");
        }
        assert!(churn(3600.0, f64::INFINITY).is_err(), "finite sessions need a finite absence");
        assert!(churn(3600.0, 2400.0).is_ok());
        assert!(churn(0.5, 1e-3).is_ok());
        let mut c = base();
        c.churn = ChurnConfig::none();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn latency_and_timeout_bounds_are_checked() {
        let mut c = base();
        c.latency = LatencyConfig::Uniform { lo_ms: 5.0, hi_ms: 1.0 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.latency = LatencyConfig::Uniform { lo_ms: -1.0, hi_ms: 1.0 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.latency = LatencyConfig::LogNormal { median_ms: 0.0, sigma: 1.0 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.latency = LatencyConfig::LogNormal { median_ms: 20.0, sigma: -0.5 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.latency = LatencyConfig::Uniform { lo_ms: 1.0, hi_ms: 50.0 };
        c.query_timeout_secs = Some(2.0);
        assert!(c.validate().is_ok());

        c.query_timeout_secs = Some(0.0);
        assert!(c.validate().is_err());
    }
}
