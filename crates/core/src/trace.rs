//! Deriving streaming traces from real play sessions.
//!
//! EXP-7 needs playback traces; rather than inventing them, this module
//! converts the analytics log of an actual session (human or bot) into a
//! [`TraceStep`] sequence over the published game's segments — dwell
//! times from the scenario-entry timestamps, branch targets from the
//! scenario graph's out-edges. The streaming simulation then answers
//! "how would *this exact playthrough* have streamed over link X?"

use vgbl_media::SegmentId;
use vgbl_runtime::analytics::{LogEvent, SessionLog};
use vgbl_stream::TraceStep;

use crate::publish::PublishedGame;

/// Minimum dwell applied when a scenario was left instantly (a pure
/// pass-through still has to show at least one chunk).
const MIN_DWELL_MS: f64 = 1.0;

/// Converts a session log into a streaming trace over `game`'s segments.
///
/// Scenarios unknown to the graph (impossible for logs produced by this
/// runtime) are skipped.
pub fn trace_from_log(game: &PublishedGame, log: &SessionLog) -> Vec<TraceStep> {
    let entries: Vec<(&str, u64)> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            LogEvent::ScenarioEntered { name, t_ms } => Some((name.as_str(), *t_ms)),
            _ => None,
        })
        .collect();
    let end = log.duration_ms();
    let mut out = Vec::with_capacity(entries.len());
    for (i, &(name, start)) in entries.iter().enumerate() {
        let Some(scenario) = game.graph.scenario_by_name(name) else {
            continue;
        };
        let stop = entries.get(i + 1).map(|&(_, t)| t).unwrap_or(end);
        let dwell = (stop.saturating_sub(start)) as f64;
        let branch_targets: Vec<SegmentId> = scenario
            .goto_targets()
            .iter()
            .filter_map(|t| game.graph.scenario_by_name(t))
            .map(|s| s.segment)
            .collect();
        out.push(TraceStep {
            segment: scenario.segment,
            watch_ms: dwell.max(MIN_DWELL_MS),
            branch_targets,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::publish;
    use crate::sample::fix_the_computer_project;
    use vgbl_obs::Obs;
    use vgbl_runtime::bot::{run_session, GuidedBot};
    use vgbl_stream::{simulate, ChunkMap, LinkModel, PrefetchPolicy};

    #[test]
    fn guided_playthrough_becomes_a_streamable_trace() {
        let (project, _) = fix_the_computer_project(2).unwrap();
        let game = publish(project).unwrap();
        let mut bot = GuidedBot::new();
        let config = game.session_config();
        let run = run_session(game.graph.clone(), config, &mut bot, 100, 100, &Obs::noop(), "")
            .unwrap();
        assert_eq!(run.state.ended.as_deref(), Some("fixed"));

        let trace = trace_from_log(&game, &run.log);
        // The solution path visits classroom → market → classroom.
        let visited: Vec<u32> = trace.iter().map(|s| s.segment.0).collect();
        assert_eq!(visited, vec![0, 1, 0]);
        assert!(trace.iter().all(|s| s.watch_ms >= MIN_DWELL_MS));
        // classroom branches to market and vice versa.
        assert_eq!(trace[0].branch_targets, vec![SegmentId(1)]);
        assert_eq!(trace[1].branch_targets, vec![SegmentId(0)]);

        // And the trace actually streams.
        let map = ChunkMap::build(&game.video, &game.segments).unwrap();
        let link = LinkModel::mbps(4.0, 20.0).unwrap();
        let stats =
            simulate(&map, &link, PrefetchPolicy::BranchAware { per_branch: 2 }, &trace)
                .unwrap();
        assert!(stats.play_ms > 0.0);
        assert!(stats.startup_ms > 0.0);
    }

    #[test]
    fn empty_log_gives_empty_trace() {
        let (project, _) = fix_the_computer_project(2).unwrap();
        let game = publish(project).unwrap();
        let trace = trace_from_log(&game, &vgbl_runtime::SessionLog::new());
        assert!(trace.is_empty());
    }
}
