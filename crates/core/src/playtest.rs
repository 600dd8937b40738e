//! Automated playtesting of authored projects.
//!
//! Validation (static) tells a course designer the game *can't* break;
//! playtesting (dynamic) tells them it actually *works*: a guided bot
//! plays the project and the report says whether an ending was reached,
//! how many decisions it took, and — the part designers act on — which
//! scenarios and objects the playthrough never touched (content students
//! may never see).

use std::collections::BTreeSet;
use std::sync::Arc;

use vgbl_author::Project;
use vgbl_obs::Obs;
use vgbl_runtime::bot::{run_session, Bot, ExplorerBot, GuidedBot};
use vgbl_runtime::SessionConfig;

use crate::{Result, VgblError};

/// How thoroughly to playtest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaytestStyle {
    /// An efficient player heading straight for an ending.
    Guided,
    /// A completionist who examines everything first.
    Explorer,
}

/// The outcome of one automated playtest.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaytestReport {
    /// The ending reached, if any.
    pub outcome: Option<String>,
    /// Decisions the bot made.
    pub steps: usize,
    /// Final score.
    pub score: i64,
    /// Rewards earned.
    pub rewards: Vec<String>,
    /// Scenarios the playthrough never entered.
    pub unvisited_scenarios: Vec<String>,
    /// `(scenario, object)` pairs never examined (content the play style
    /// never surfaced).
    pub unexamined_objects: Vec<(String, String)>,
    /// Knowledge events delivered.
    pub knowledge_events: usize,
}

impl PlaytestReport {
    /// Whether the playtest reached an ending.
    pub fn completed(&self) -> bool {
        self.outcome.is_some()
    }

    /// Fraction of objects the playthrough examined.
    pub fn object_coverage(&self, total_objects: usize) -> f64 {
        if total_objects == 0 {
            return 1.0;
        }
        1.0 - self.unexamined_objects.len() as f64 / total_objects as f64
    }
}

/// Playtests `project` with the given style and step budget.
///
/// The project's *graph* is played directly (no footage needed — this is
/// the authoring-time loop, run before any video is even imported).
pub fn playtest(
    project: &Project,
    style: PlaytestStyle,
    max_steps: usize,
) -> Result<PlaytestReport> {
    let graph = Arc::new(project.graph.clone());
    let config = SessionConfig::for_frame(project.frame_size.0, project.frame_size.1);
    let mut bot: Box<dyn Bot> = match style {
        PlaytestStyle::Guided => Box::new(GuidedBot::new()),
        PlaytestStyle::Explorer => Box::new(ExplorerBot::new()),
    };
    let run = run_session(graph.clone(), config, &mut *bot, max_steps, 50, &Obs::noop(), "")
        .map_err(VgblError::Runtime)?;

    let mut unvisited: Vec<String> = Vec::new();
    let mut unexamined: Vec<(String, String)> = Vec::new();
    let examined: BTreeSet<&String> = run.state.examined.iter().collect();
    for s in graph.scenarios() {
        if !run.state.visited.contains(&s.name) {
            unvisited.push(s.name.clone());
        }
        for o in s.objects() {
            if !examined.contains(&o.name) {
                unexamined.push((s.name.clone(), o.name.clone()));
            }
        }
    }

    Ok(PlaytestReport {
        outcome: run.state.ended.clone(),
        steps: run.steps,
        score: run.state.score,
        rewards: run.inventory.rewards().to_vec(),
        unvisited_scenarios: unvisited,
        unexamined_objects: unexamined,
        knowledge_events: run.log.knowledge_events(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_author::wizard::{escape_template, tour_template};

    #[test]
    fn guided_playtest_completes_sample() {
        let (project, _) = crate::sample::fix_the_computer_project(2).unwrap();
        let report = playtest(&project, PlaytestStyle::Guided, 150).unwrap();
        assert_eq!(report.outcome.as_deref(), Some("fixed"));
        assert!(report.completed());
        assert_eq!(report.score, 25);
        assert!(report.unvisited_scenarios.is_empty());
        assert!(report.knowledge_events >= 2);
    }

    #[test]
    fn explorer_playtest_covers_more_objects() {
        let (project, _) = crate::sample::fix_the_computer_project(2).unwrap();
        let guided = playtest(&project, PlaytestStyle::Guided, 150).unwrap();
        let explorer = playtest(&project, PlaytestStyle::Explorer, 200).unwrap();
        let total: usize = project.graph.scenarios().iter().map(|s| s.objects().len()).sum();
        assert!(explorer.object_coverage(total) >= guided.object_coverage(total));
        assert!(explorer.completed());
    }

    #[test]
    fn playtest_flags_unreachable_content() {
        // A tour where the exit needs every room, but the bot's budget is
        // too small to finish: the report surfaces what was missed.
        let project = tour_template("t", 6);
        let report = playtest(&project, PlaytestStyle::Guided, 8).unwrap();
        assert!(!report.completed());
        assert!(!report.unvisited_scenarios.is_empty());
    }

    #[test]
    fn playtest_escape_room_coverage() {
        let project = escape_template("e", 3);
        let report = playtest(&project, PlaytestStyle::Guided, 200).unwrap();
        assert_eq!(report.outcome.as_deref(), Some("escaped"));
        assert!(report.unvisited_scenarios.is_empty());
        assert_eq!(report.rewards, vec!["escape_artist".to_string()]);
    }

    #[test]
    fn unplayable_project_reports_error() {
        use vgbl_author::command::{Command, CommandStack, TriggerTarget};
        let mut project = tour_template("t", 2);
        let mut stack = CommandStack::new();
        stack
            .apply(
                &mut project,
                Command::AddTrigger {
                    scenario: "hub".into(),
                    target: TriggerTarget::Entry,
                    event: "enter".into(),
                    condition: None,
                    actions: vec!["goto nowhere".into()],
                },
            )
            .unwrap();
        assert!(playtest(&project, PlaytestStyle::Guided, 50).is_err());
    }
}
