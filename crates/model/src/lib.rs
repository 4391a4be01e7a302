//! The paper's analytical cost model (Sections 2–5, Eq. 1–17).
//!
//! Everything is expressed in *messages*; one round = one second. The crate
//! is organized by paper section:
//!
//! * [`params`] — the Table 1 scenario and the query-frequency sweep,
//! * [`cost`] — the cost primitives `cSUnstr`, `cSIndx`, `cRtn`, `cUpd`,
//!   `cIndKey` (Eq. 6–10) and `cSIndx2` (Eq. 16),
//! * [`partial`] — *ideal* partial indexing: the `fMin`/`maxRank` fixed
//!   point (Eq. 1–5),
//! * [`strategy`] — total costs of `indexAll`, `noIndex` and ideal
//!   `partial` (Eq. 11–13) plus savings (Fig. 2),
//! * [`selection`] — the decentralized TTL selection algorithm's cost
//!   (Eq. 14–17, Fig. 4) and the §5.1.1 keyTtl sensitivity scan,
//! * [`crossover`] — the `fQry` at which two strategies cost the same,
//! * [`kary`] — the `k`-ary key-space generalisation (footnote 3).
//!
//! The series of Figs. 1–4 are [`StrategyCosts`] (Figs. 1–3) and
//! [`SelectionModel`] (Fig. 4) evaluated over
//! [`params::QUERY_FREQ_SWEEP`]; the `pdht-bench` experiments F1–F4
//! tabulate them.
//!
//! # Example
//!
//! ```
//! use pdht_model::{params::Scenario, strategy::StrategyCosts};
//!
//! let scenario = Scenario::table1();
//! // Busiest load of the paper: one query per peer every 30 s.
//! let costs = StrategyCosts::evaluate(&scenario, 1.0 / 30.0).unwrap();
//! assert!(costs.partial_ideal < costs.index_all);
//! assert!(costs.partial_ideal < costs.no_index);
//! ```

pub mod cost;
pub mod crossover;
mod figures;
pub mod kary;
pub mod params;
pub mod partial;
pub mod selection;
pub mod strategy;

pub use cost::CostModel;
pub use kary::KaryCost;
pub use params::Scenario;
pub use partial::IdealPartial;
pub use selection::SelectionModel;
pub use strategy::StrategyCosts;
