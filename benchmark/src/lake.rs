//! The real simulated lake of `lake_fleet`: `Fleet` writes through
//! engine, lst, catalog and storage; `LakesimConnector` reads stats,
//! `LakesimExecutor` plans and submits bin-pack rewrites, and
//! `CommitEventBridge` turns each day's commits into runtime events.

use std::collections::VecDeque;

use crate::drive::{Bucket, Source, Step};
use crate::seam::{
    production_pipeline, runtime_config, AutoComp, LakeConnector, LakeFleet, RuntimeConfig,
    RuntimeEvent, TelemetrySink, TrackedExecutor,
};

#[derive(Debug, Clone, Copy)]
pub struct LakeSizes {
    pub databases: usize,
    pub tables_per_db: usize,
    pub dirty_watermark: usize,
    /// MOOP top-k and jobs admitted in flight.
    pub k: usize,
}

/// Where in the simulated day the source stands.
enum Stage {
    Write,
    Bridge,
    Deliver,
    Flush,
    Settle,
    End,
}

/// One simulated day per unit: a day of writes, the bridge's commit
/// events, a flush round, then the four-hour window in which the
/// submitted rewrites commit.
pub struct LakeSource {
    fleet: LakeFleet,
    sizes: LakeSizes,
    queue: VecDeque<RuntimeEvent>,
    stage: Stage,
}

impl Source for LakeSource {
    fn next(&mut self) -> Step {
        match self.stage {
            Stage::Write => {
                self.fleet.advance_day();
                self.stage = Stage::Bridge;
                Step::Work(Bucket::EngineWrite)
            }
            Stage::Bridge => {
                self.queue = self.fleet.drain_bridge().into();
                self.stage = Stage::Deliver;
                Step::Work(Bucket::BridgeDrain)
            }
            Stage::Deliver => match self.queue.pop_front() {
                Some(event) => Step::Event(event),
                None => {
                    self.stage = Stage::Flush;
                    self.next()
                }
            },
            Stage::Flush => {
                self.stage = Stage::Settle;
                Step::Event(RuntimeEvent::Flush {
                    at_ms: self.fleet.now_ms(),
                })
            }
            Stage::Settle => {
                self.fleet.settle_window();
                self.stage = Stage::End;
                Step::Work(Bucket::EngineDrain)
            }
            Stage::End => {
                self.stage = Stage::Write;
                Step::UnitEnd
            }
        }
    }

    fn now_ms(&self) -> u64 {
        self.fleet.now_ms()
    }

    fn pipeline(&self, sink: TelemetrySink) -> AutoComp {
        production_pipeline(self.sizes.k, sink)
    }

    fn runtime_config(&self) -> RuntimeConfig {
        // Every event of a day carries the day's timestamp, so the
        // staleness trigger can never be what fires a round.
        runtime_config(self.sizes.dirty_watermark, None)
    }

    fn quality(&self) -> (f64, f64, f64) {
        let (files, gbhr) = self.fleet.maintenance_totals();
        (files as f64, gbhr, self.fleet.small_file_fraction())
    }
}

/// A fresh fleet with its connector, executor and day-by-day source.
pub fn world(
    sizes: LakeSizes,
    seed: u64,
) -> (impl LakeConnector, impl TrackedExecutor, LakeSource) {
    let fleet = LakeFleet::build(seed, sizes.databases, sizes.tables_per_db);
    (
        fleet.connector(),
        fleet.executor(),
        LakeSource {
            fleet,
            sizes,
            queue: VecDeque::new(),
            stage: Stage::Write,
        },
    )
}
