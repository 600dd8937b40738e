//! The two learner workloads: `classroom_burst` and `branchy_watch`.

use std::sync::Arc;

use vgbl::media::cache::GopCache;
use vgbl::stream::{simulate, ChunkMap, LinkModel, PrefetchPolicy};
use vgbl::trace::trace_from_log;

use crate::game::{Game, GameSpec, Template};
use crate::learner::Cohort;
use crate::mix;
use crate::report::Tally;
use crate::run::{add_cache_delta, Workload};
use crate::trace::span;

/// A class of learners starts the same published multi-room game
/// together (a closed batch); each makes a short seeded walk. The shared
/// cache holds every GOP and is filled during set-up, so session set-up
/// and scheduling do most of the work and decoding almost none.
pub struct Classroom {
    seed: u64,
    game: Game,
    cache: Arc<GopCache>,
    learners: usize,
    steps: usize,
}

impl Workload for Classroom {
    /// Each learner's player set-up (the `VideoId::of` hash) does most of
    /// the work, and hashing is compute-bound.
    const MEMORY_SHARE: f64 = 0.0;

    fn setup(seed: u64, tiny: bool) -> Classroom {
        let game = Game::build(&GameSpec::LESSON, seed);
        let cache = game.full_cache();
        let (learners, steps) = if tiny { (12, 4) } else { (200, 6) };
        Classroom {
            seed,
            game,
            cache,
            learners,
            steps,
        }
    }

    fn game_mut(&mut self) -> &mut Game {
        &mut self.game
    }

    fn round(&self, round: u64, tally: &mut Tally) {
        let before = self.cache.stats();
        let cohort = Cohort {
            game: &self.game,
            cache: &self.cache,
            learners: self.learners,
            steps: self.steps,
            keep_logs: false,
        };
        cohort.play(mix(self.seed, round), tally);
        add_cache_delta(tally, before, self.cache.stats());
    }
}

/// A few learners (a closed batch), each with a long session, branch
/// often across the many segments of larger footage. The shared cache
/// holds a quarter of the GOPs, so GOP decode, eviction and seek do most
/// of the work and set-up is negligible. Each finished session is then
/// replayed through the streaming client as it would have streamed.
pub struct Branchy {
    seed: u64,
    game: Game,
    cache: Arc<GopCache>,
    chunks: ChunkMap,
    link: LinkModel,
    learners: usize,
    steps: usize,
}

impl Workload for Branchy {
    /// GOP decode and eviction, most of a round, are memory-bound.
    const MEMORY_SHARE: f64 = 1.0;

    /// A learner's first frame waits for the batch's player set-ups,
    /// whose `VideoId::of` hashes are compute-bound, and one GOP decode.
    const FIRST_FRAME_MEMORY_SHARE: f64 = 0.25;

    fn setup(seed: u64, tiny: bool) -> Branchy {
        let spec = if tiny {
            GameSpec {
                template: Template::Tour,
                width: 64,
                height: 48,
                rooms: 3,
                shot_frames: 12,
                gop: 6,
                search_range: 3,
            }
        } else {
            GameSpec {
                template: Template::Tour,
                width: 128,
                height: 96,
                rooms: 11,
                shot_frames: 24,
                gop: 12,
                search_range: 3,
            }
        };
        let game = Game::build(&spec, seed);
        let cache = Arc::new(GopCache::new((game.n_gops / 4).max(1)));
        let chunks =
            ChunkMap::build(&game.video, &game.published.segments).expect("chunk map builds");
        let link = LinkModel::mbps(40.0, 15.0).expect("link model");
        // An odd batch: every round puts one session at each run-queue
        // position, so the pooled first-frame median is the middle
        // position's median, not the edge between two positions.
        let (learners, steps) = if tiny { (3, 20) } else { (5, 200) };
        Branchy {
            seed,
            game,
            cache,
            chunks,
            link,
            learners,
            steps,
        }
    }

    fn game_mut(&mut self) -> &mut Game {
        &mut self.game
    }

    /// Each batch starts on an empty cache, so whether its first GOP is
    /// resident does not depend on where the previous batch ended.
    fn round(&self, round: u64, tally: &mut Tally) {
        self.cache.clear();
        let before = self.cache.stats();
        let cohort = Cohort {
            game: &self.game,
            cache: &self.cache,
            learners: self.learners,
            steps: self.steps,
            keep_logs: true,
        };
        let finished = cohort.play(mix(self.seed, round), tally);
        add_cache_delta(tally, before, self.cache.stats());
        for run in finished {
            let log = run.log.expect("branchy sessions keep their logs");
            let stats = span("stream.simulate", || {
                let steps = trace_from_log(&self.game.published, &log);
                simulate(
                    &self.chunks,
                    &self.link,
                    PrefetchPolicy::BranchAware { per_branch: 1 },
                    &steps,
                )
            });
            match stats {
                Ok(s) => {
                    tally.stream_startup_ms.push(s.startup_ms);
                    tally.stream_rebuffer.push(s.rebuffer_ratio());
                }
                Err(e) => tally.violations.push(format!("stream replay failed: {e}")),
            }
        }
    }
}
