//! # yoco-dse — design-space exploration over the sweep engine
//!
//! The paper justifies one hand-picked Table II design point; this crate
//! explores the knob space around it. It turns [`yoco_sweep::Engine`]
//! into a design-space optimizer:
//!
//! * [`grids`](yoco_sweep::DseGrid) — the named DSE grids (`dse-tiles`,
//!   `dse-stack`, `dse-ima-mix`, `dse-activity`, `dse-full`) live in
//!   `yoco_sweep::grids`, so `sweep run`, `yoco-serve`, and the
//!   shard/merge path accept them too;
//! * [`objective`] — typed multi-objective vectors (TOPS, TOPS/W,
//!   energy, latency, power, area via the arch/mem area models) extracted
//!   from [`yoco_sweep::Metrics`] into an [`ObjectiveSpace`] with
//!   per-axis maximize/minimize directions;
//! * [`explore`](mod@explore) — search drivers: exhaustive enumeration,
//!   seeded-random sampling, and a coordinate-descent hill climber, all
//!   evaluating through the engine (so repeated runs converge from cache
//!   hits);
//! * [`pareto`] — exact Pareto-front assembly over every evaluated point;
//! * [`report`] — the deterministic [`DseReport`] (front + dominated
//!   count + per-knob sensitivity) as canonical JSON plus a CSV dump.
//!
//! ## Quickstart
//!
//! ```
//! use yoco_dse::{run_dse, Driver, ObjectiveSpace};
//! use yoco_sweep::{DseGrid, Engine};
//!
//! let grid = DseGrid::find("dse-tiles").unwrap();
//! let space = ObjectiveSpace::headline(); // tops + tops-per-watt
//! let (report, _) = run_dse(
//!     &Engine::ephemeral().jobs(4),
//!     grid,
//!     &space,
//!     Driver::Exhaustive,
//!     usize::MAX,
//! ).unwrap();
//! assert!(!report.front.is_empty());
//! assert_eq!(report.points.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod explore;
pub mod objective;
pub mod pareto;
pub mod report;

pub use explore::{explore, Driver, EvaluatedPoint, Exploration, Explorer};
pub use objective::{Objective, ObjectiveSpace, PointMetrics};
pub use pareto::pareto_front;
pub use report::{DsePointRecord, DseReport, KnobSensitivity, KnobSetting};

use yoco_sweep::{DseGrid, Engine, SweepError};

/// Runs a driver over a grid and assembles the deterministic report.
///
/// Returns the report plus the raw [`Exploration`] (whose cache/timing
/// accounting is intentionally *not* part of the report, so cold and warm
/// runs produce byte-identical [`DseReport::canonical_json`]).
pub fn run_dse(
    engine: &Engine,
    grid: &'static DseGrid,
    space: &ObjectiveSpace,
    driver: Driver,
    budget: usize,
) -> Result<(DseReport, Exploration), SweepError> {
    let exploration = explore(engine, grid, space, driver, budget)?;
    let seed = match driver {
        Driver::Exhaustive => 0,
        Driver::Random { seed } | Driver::Climb { seed } => seed,
    };
    let report = DseReport::assemble(grid, driver, seed, space, budget, &exploration);
    Ok((report, exploration))
}
