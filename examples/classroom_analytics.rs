//! A distance-learning cohort: many simulated students, one report.
//!
//! The paper motivates the platform with distance learning — many
//! students playing the same course concurrently. This example hosts a
//! mixed cohort (guided and random players) on the cohort server and
//! prints the learning report an instructor would read
//! (completion, decisions, knowledge delivery, rewards — §3.2/§3.3).
//!
//! Run with: `cargo run --example classroom_analytics`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vgbl::obs::Obs;
use vgbl::runtime::bot::{Bot, GuidedBot, RandomBot};
use vgbl::runtime::fixtures::{fix_the_computer, FRAME};
use vgbl::runtime::server::run_cohort;
use vgbl::runtime::SessionConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Arc::new(fix_the_computer());
    let config = SessionConfig::for_frame(FRAME.0, FRAME.1);

    for (label, factory) in [
        (
            "guided students",
            Box::new(|_i: usize| Box::new(GuidedBot::new()) as Box<dyn Bot>)
                as Box<dyn Fn(usize) -> Box<dyn Bot>>,
        ),
        (
            "random clickers",
            Box::new(|i: usize| {
                Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64))) as Box<dyn Bot>
            }),
        ),
    ] {
        let report = run_cohort(graph.clone(), config.clone(), 40, &*factory, 120, 50);
        let l = &report.learning;
        println!("cohort: {label} ({} sessions)", report.sessions);
        println!("  completion    : {:>5.1}%", l.completion_rate() * 100.0);
        println!("  avg decisions : {:>5.1}", l.avg_decisions);
        println!("  avg knowledge : {:>5.1} events", l.avg_knowledge);
        println!("  avg rewards   : {:>5.2}", l.avg_rewards);
        println!("  avg score     : {:>5.1}", l.avg_score);
        println!("  avg duration  : {:>5.0} ms (game time)\n", l.avg_duration_ms);
    }

    // The instructor's attention heatmap: which props does a diligent
    // student actually investigate, and for how long per scenario?
    let mut bot = vgbl::runtime::ExplorerBot::new();
    let run = vgbl::runtime::bot::run_session(graph, config, &mut bot, 200, 50, &Obs::noop(), "")?;
    println!("attention heatmap (one explorer session):");
    for ((scenario, object), count) in run.log.examinations_per_object() {
        println!("  {scenario:<12} {object:<12} {}", "#".repeat(count));
    }
    println!("time per scenario:");
    for (scenario, ms) in run.log.time_per_scenario() {
        println!("  {scenario:<12} {ms:>6} ms");
    }
    let (gained, lost) = run.log.score_swings();
    println!("score swings: +{gained} / -{lost}");
    Ok(())
}
