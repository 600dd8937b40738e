//! Simulated players.
//!
//! Real students are not available to this reproduction, so EXP-9 drives
//! the platform with bots: [`ScriptedBot`] replays a fixed input list,
//! [`RandomBot`] flails like a curious but unguided learner,
//! [`GuidedBot`] plays efficiently toward an ending, and [`ExplorerBot`]
//! reads *everything* (every object, every dialogue branch, every
//! scenario) before finishing. Comparing their analytics quantifies how
//! much of the game's knowledge content each play style surfaces.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use rand::Rng;
use vgbl_obs::Obs;
use vgbl_scene::{ObjectKind, SceneGraph};
use vgbl_script::EventKind;

use crate::analytics::SessionLog;
use crate::engine::{GameSession, SessionConfig};
use crate::error::RuntimeError;
use crate::input::InputEvent;
use crate::inventory::Inventory;
use crate::state::GameState;
use crate::Result;

/// A strategy producing the next input for a session.
pub trait Bot {
    /// The next input, or `None` when the bot gives up.
    fn next_input(&mut self, session: &GameSession) -> Result<Option<InputEvent>>;
}

/// Replays a fixed input sequence.
#[derive(Debug, Clone)]
pub struct ScriptedBot {
    inputs: VecDeque<InputEvent>,
}

impl ScriptedBot {
    /// Creates a bot replaying `inputs` in order.
    pub fn new(inputs: impl IntoIterator<Item = InputEvent>) -> ScriptedBot {
        ScriptedBot { inputs: inputs.into_iter().collect() }
    }
}

impl Bot for ScriptedBot {
    fn next_input(&mut self, _session: &GameSession) -> Result<Option<InputEvent>> {
        Ok(self.inputs.pop_front())
    }
}

/// Clicks, drags and applies at random — the unguided learner.
#[derive(Debug)]
pub struct RandomBot<R: Rng> {
    rng: R,
}

impl<R: Rng> RandomBot<R> {
    /// Creates a random bot over the given RNG.
    pub fn new(rng: R) -> RandomBot<R> {
        RandomBot { rng }
    }
}

impl<R: Rng> Bot for RandomBot<R> {
    fn next_input(&mut self, session: &GameSession) -> Result<Option<InputEvent>> {
        // Mid-conversation: pick a random response (or occasionally walk
        // off, as real students do).
        if session.dialogue().is_some() {
            let choices = session.dialogue_choices();
            if !choices.is_empty() && self.rng.gen_bool(0.8) {
                return Ok(Some(InputEvent::Choose(self.rng.gen_range(0..choices.len()))));
            }
        }
        let (fw, fh) = session.config().frame_size;
        let objects = session.visible_objects()?;
        let inv_centre = session.config().inventory_window.center();
        let choice = self.rng.gen_range(0..100);
        let input = if choice < 45 && !objects.is_empty() {
            // Click a random object's centre.
            let o = &objects[self.rng.gen_range(0..objects.len())];
            let c = o.bounds.center();
            InputEvent::click(c.x, c.y)
        } else if choice < 60 && !objects.is_empty() {
            // Drag a random object to the inventory window.
            let o = &objects[self.rng.gen_range(0..objects.len())];
            let c = o.bounds.center();
            InputEvent::drag(c.x, c.y, inv_centre.x, inv_centre.y)
        } else if choice < 75 {
            // Apply a random held item to a random object.
            let items: Vec<&str> = session.inventory().items().map(|(n, _)| n).collect();
            if items.is_empty() || objects.is_empty() {
                InputEvent::click(
                    self.rng.gen_range(0..fw as i32),
                    self.rng.gen_range(0..fh as i32),
                )
            } else {
                let item = items[self.rng.gen_range(0..items.len())].to_owned();
                let o = &objects[self.rng.gen_range(0..objects.len())];
                let c = o.bounds.center();
                InputEvent::apply(item, c.x, c.y)
            }
        } else {
            // Click somewhere random (often empty video).
            InputEvent::click(
                self.rng.gen_range(0..fw as i32),
                self.rng.gen_range(0..fh as i32),
            )
        };
        Ok(Some(input))
    }
}

/// Plays systematically: take items, try held items on `use` listeners,
/// examine everything once, then follow transitions toward an ending.
#[derive(Debug, Default)]
pub struct GuidedBot {
    /// `(scenario, object, action-tag)` combinations already tried since
    /// the last observable state change.
    tried: HashSet<(String, String, &'static str)>,
    last_signature: u64,
}

impl GuidedBot {
    /// Creates a fresh guided bot.
    pub fn new() -> GuidedBot {
        GuidedBot::default()
    }

    fn signature(session: &GameSession) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        session.state().current_scenario.hash(&mut h);
        session.state().score.hash(&mut h);
        for (k, v) in &session.state().flags {
            k.hash(&mut h);
            v.hash(&mut h);
        }
        for (item, count) in session.inventory().items() {
            item.hash(&mut h);
            count.hash(&mut h);
        }
        h.finish()
    }

    /// BFS from the current scenario toward any scenario containing an
    /// `end` action; returns the name of the next scenario on that path.
    fn next_toward_end(session: &GameSession) -> Option<String> {
        let graph = session.graph();
        let start = &session.state().current_scenario;
        let mut prev: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(start.as_str());
        let mut goal: Option<&str> = None;
        let start_scenario = graph.scenario_by_name(start)?;
        if start_scenario.has_end() {
            return None; // already here; no movement needed
        }
        'bfs: while let Some(name) = queue.pop_front() {
            let scenario = graph.scenario_by_name(name)?;
            for target in scenario.goto_targets() {
                if target == start || prev.contains_key(target) {
                    continue;
                }
                if graph.scenario_by_name(target).is_none() {
                    continue;
                }
                prev.insert(target, name);
                if graph.scenario_by_name(target).map(|s| s.has_end()) == Some(true) {
                    goal = Some(target);
                    break 'bfs;
                }
                queue.push_back(target);
            }
        }
        let goal = goal?;
        // Walk back to the step right after `start`.
        let mut cur = goal;
        while prev.get(cur).copied() != Some(start.as_str()) {
            cur = prev.get(cur)?;
        }
        Some(cur.to_owned())
    }
}

impl Bot for GuidedBot {
    fn next_input(&mut self, session: &GameSession) -> Result<Option<InputEvent>> {
        // In a conversation: take the polite exit when offered, otherwise
        // explore the first option (loops are cut by the step budget).
        if session.dialogue().is_some() {
            let choices = session.dialogue_choices();
            let npc = session.dialogue().map(|d| d.npc.clone()).unwrap_or_default();
            let node = session.dialogue().map(|d| d.node).unwrap_or(0);
            let exit = session
                .graph()
                .npc(&npc)
                .and_then(|n| n.dialogue.get(node))
                .and_then(|n| n.choices.iter().position(|c| c.next.is_none()));
            let pick = exit.unwrap_or(0).min(choices.len().saturating_sub(1));
            return Ok(Some(InputEvent::Choose(pick)));
        }
        let sig = Self::signature(session);
        if sig != self.last_signature {
            self.tried.clear();
            self.last_signature = sig;
        }
        let scenario_name = session.state().current_scenario.clone();
        let objects = session.visible_objects()?;
        let inv_centre = session.config().inventory_window.center();

        // 1. Collect any takeable item.
        for o in &objects {
            if o.is_takeable() && !session.inventory().has(&o.name) {
                let key = (scenario_name.clone(), o.name.clone(), "take");
                if !self.tried.contains(&key) {
                    self.tried.insert(key);
                    let c = o.bounds.center();
                    return Ok(Some(InputEvent::drag(c.x, c.y, inv_centre.x, inv_centre.y)));
                }
            }
        }

        // 2. Try held items on objects that listen for them.
        for o in &objects {
            for (item, _) in session.inventory().items() {
                if o.listens_for(&EventKind::Use(item.to_owned())) {
                    let key = (scenario_name.clone(), o.name.clone(), "apply");
                    if !self.tried.contains(&key) {
                        self.tried.insert(key);
                        let c = o.bounds.center();
                        return Ok(Some(InputEvent::apply(item.to_owned(), c.x, c.y)));
                    }
                }
            }
        }

        // 3. Examine anything unexamined (click listeners, items, NPCs) —
        //    but not pure navigation buttons; those come last.
        for o in &objects {
            let is_nav = matches!(o.kind, ObjectKind::Button { .. });
            if is_nav {
                continue;
            }
            let key = (scenario_name.clone(), o.name.clone(), "click");
            if !self.tried.contains(&key) {
                self.tried.insert(key);
                let c = o.bounds.center();
                return Ok(Some(InputEvent::click(c.x, c.y)));
            }
        }

        // 4. Move toward an ending; prefer the BFS-chosen next scenario.
        let preferred = Self::next_toward_end(session);
        let mut fallback: Option<InputEvent> = None;
        for o in &objects {
            let targets: Vec<String> = o
                .triggers
                .triggers()
                .iter()
                .flat_map(|t| t.actions.iter())
                .filter_map(|a| match a {
                    vgbl_script::Action::GoTo(t) => Some(t.clone()),
                    _ => None,
                })
                .collect();
            if targets.is_empty() {
                // An object whose *click* ends the game counts as the
                // destination itself.
                let ends_on_click = o.triggers.triggers().iter().any(|t| {
                    t.event == EventKind::Click
                        && t.actions.iter().any(|a| matches!(a, vgbl_script::Action::End(_)))
                });
                if ends_on_click {
                    let c = o.bounds.center();
                    return Ok(Some(InputEvent::click(c.x, c.y)));
                }
                continue;
            }
            let c = o.bounds.center();
            let click = InputEvent::click(c.x, c.y);
            if let Some(p) = &preferred {
                if targets.iter().any(|t| t == p) {
                    let key = (scenario_name.clone(), o.name.clone(), "nav");
                    self.tried.insert(key);
                    return Ok(Some(click));
                }
            }
            let key = (scenario_name.clone(), o.name.clone(), "nav");
            if fallback.is_none() && !self.tried.contains(&key) {
                self.tried.insert(key);
                fallback = Some(click);
            }
        }
        if let Some(f) = fallback {
            return Ok(Some(f));
        }

        // 5. Everything tried: wait a bit (timers may open paths), then
        //    give up after the runner's step budget expires.
        Ok(Some(InputEvent::Tick(500)))
    }
}

/// Explores exhaustively before finishing: examines every object, walks
/// every dialogue branch once, visits every reachable scenario, and only
/// then heads for an ending — the learner who reads *everything*.
#[derive(Debug, Default)]
pub struct ExplorerBot {
    /// `(npc, node, choice)` dialogue branches already taken.
    chosen: HashSet<(String, u32, usize)>,
    /// Inner guided bot used once exploration is exhausted.
    closer: GuidedBot,
    /// `(scenario, object)` pairs already examined by this bot.
    examined: HashSet<(String, String)>,
    /// Navigation edges `(scenario, object)` already taken while exploring.
    nav_taken: HashSet<(String, String)>,
}

impl ExplorerBot {
    /// Creates a fresh explorer.
    pub fn new() -> ExplorerBot {
        ExplorerBot::default()
    }

    fn all_scenarios_visited(session: &GameSession) -> bool {
        session
            .graph()
            .scenarios()
            .iter()
            .all(|s| session.state().visited.contains(&s.name))
    }
}

impl Bot for ExplorerBot {
    fn next_input(&mut self, session: &GameSession) -> Result<Option<InputEvent>> {
        // Dialogue: take an untried branch; exit when all are known.
        if let Some(d) = session.dialogue() {
            let npc = d.npc.clone();
            let node_id = d.node;
            let node = session.graph().npc(&npc).and_then(|n| n.dialogue.get(node_id));
            if let Some(node) = node {
                for (i, _) in node.choices.iter().enumerate() {
                    let key = (npc.clone(), node_id, i);
                    if !self.chosen.contains(&key) {
                        self.chosen.insert(key);
                        return Ok(Some(InputEvent::Choose(i)));
                    }
                }
                // All branches known: take the exit (or the first).
                let exit = node.choices.iter().position(|c| c.next.is_none()).unwrap_or(0);
                return Ok(Some(InputEvent::Choose(exit)));
            }
        }

        let scenario_name = session.state().current_scenario.clone();
        let objects = session.visible_objects()?;
        let inv_centre = session.config().inventory_window.center();

        // 1. Examine anything this bot has not yet clicked here (items,
        //    NPCs, info buttons — everything delivers knowledge).
        for o in &objects {
            let is_end_button = o.triggers.triggers().iter().any(|t| {
                t.actions.iter().any(|a| matches!(a, vgbl_script::Action::End(_)))
            });
            let is_nav = !o
                .triggers
                .triggers()
                .iter()
                .flat_map(|t| t.actions.iter())
                .filter(|a| matches!(a, vgbl_script::Action::GoTo(_)))
                .collect::<Vec<_>>()
                .is_empty();
            if is_end_button || is_nav {
                continue; // endings and navigation come last
            }
            let key = (scenario_name.clone(), o.name.clone());
            if !self.examined.contains(&key) {
                self.examined.insert(key);
                let c = o.bounds.center();
                return Ok(Some(InputEvent::click(c.x, c.y)));
            }
        }

        // 2. Collect items.
        for o in &objects {
            if o.is_takeable() && !session.inventory().has(&o.name) {
                let c = o.bounds.center();
                return Ok(Some(InputEvent::drag(c.x, c.y, inv_centre.x, inv_centre.y)));
            }
        }

        // 3. Try held items wherever they are listened for.
        for o in &objects {
            for (item, _) in session.inventory().items() {
                if o.listens_for(&EventKind::Use(item.to_owned())) {
                    let key = (scenario_name.clone(), format!("use:{}:{}", o.name, item));
                    if !self.examined.contains(&key) {
                        self.examined.insert(key);
                        let c = o.bounds.center();
                        return Ok(Some(InputEvent::apply(item.to_owned(), c.x, c.y)));
                    }
                }
            }
        }

        // 4. Still unexplored scenarios? Take a navigation edge not yet
        //    travelled (preferring targets not yet visited).
        if !Self::all_scenarios_visited(session) {
            let mut fallback: Option<InputEvent> = None;
            for o in &objects {
                let targets: Vec<String> = o
                    .triggers
                    .triggers()
                    .iter()
                    .flat_map(|t| t.actions.iter())
                    .filter_map(|a| match a {
                        vgbl_script::Action::GoTo(t) => Some(t.clone()),
                        _ => None,
                    })
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                let c = o.bounds.center();
                let click = InputEvent::click(c.x, c.y);
                if targets
                    .iter()
                    .any(|t| !session.state().visited.contains(t))
                {
                    return Ok(Some(click));
                }
                let key = (scenario_name.clone(), o.name.clone());
                if fallback.is_none() && !self.nav_taken.contains(&key) {
                    self.nav_taken.insert(key);
                    fallback = Some(click);
                }
            }
            if let Some(f) = fallback {
                return Ok(Some(f));
            }
        }

        // 5. Everything seen: let the guided closer finish the game.
        self.closer.next_input(session)
    }
}

/// Outcome of a bot run.
#[derive(Debug, Clone)]
pub struct BotRun {
    /// Final game state.
    pub state: GameState,
    /// The full session log.
    pub log: SessionLog,
    /// Final backpack.
    pub inventory: Inventory,
    /// Decisions actually submitted.
    pub steps: usize,
}

impl BotRun {
    /// Where `session` stands after `steps` decisions.
    pub(crate) fn of(session: &GameSession, steps: usize) -> BotRun {
        BotRun {
            state: session.state().clone(),
            log: session.log().clone(),
            inventory: session.inventory().clone(),
            steps,
        }
    }
}

/// Drives one session with a bot for at most `max_steps` inputs; a
/// `tick_ms` tick is injected after every input to advance game time.
///
/// Engine counters flow into `obs` and the playthrough is recorded as
/// one trace labelled `label` — a root `session` span over the game
/// clock with an `input` event per decision. Timestamps are the
/// session's **simulated** game clock in microseconds, so identical bot
/// runs export identical traces.
///
/// The trace is attached even when the run errors mid-way (the root
/// span is closed at the last decision's timestamp), so a failed
/// session still tells its story.
pub fn run_session(
    graph: Arc<SceneGraph>,
    config: SessionConfig,
    bot: &mut dyn Bot,
    max_steps: usize,
    tick_ms: u64,
    obs: &Obs,
    label: &str,
) -> Result<BotRun> {
    let mut rec = obs.recorder(label.to_owned());
    let run = GameSession::new(graph, config).and_then(|(mut session, _)| {
        session.set_obs(obs);
        rec.enter("session", 0);
        let steps = drive(&mut session, bot, 0, max_steps, tick_ms, |s, n| {
            rec.event("input", n as u64, s.state().total_clock_ms.saturating_mul(1000));
        })?;
        // Saturating: a pathological session clock must pin the span's
        // end at the u64 horizon, not wrap it before its start.
        rec.exit(session.state().total_clock_ms.saturating_mul(1000));
        Ok(BotRun::of(&session, steps))
    });
    obs.attach(rec);
    run
}

/// The one decision loop every session driver runs: from `start_step`,
/// ask the bot for an input, submit it, then inject a `tick_ms` tick,
/// until `max_steps` decisions, the game's end, or the bot giving up.
/// `on_input` sees the session and the 1-based step number just before
/// each input is handled. Returns the step count reached.
pub(crate) fn drive(
    session: &mut GameSession,
    bot: &mut dyn Bot,
    start_step: usize,
    max_steps: usize,
    tick_ms: u64,
    mut on_input: impl FnMut(&GameSession, usize),
) -> Result<usize> {
    let mut steps = start_step;
    while steps < max_steps && !session.state().is_over() {
        let Some(input) = bot.next_input(session)? else {
            break;
        };
        steps += 1;
        on_input(session, steps);
        match session.handle(input) {
            Ok(_) => {}
            Err(RuntimeError::GameOver { .. }) => break,
            Err(e) => return Err(e),
        }
        if !session.state().is_over() && tick_ms > 0 {
            session.handle(InputEvent::Tick(tick_ms))?;
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fix_the_computer, two_room_loop, FRAME};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> SessionConfig {
        SessionConfig::for_frame(FRAME.0, FRAME.1)
    }

    #[test]
    fn scripted_bot_replays_solution() {
        let mut bot = ScriptedBot::new(vec![
            InputEvent::click(25, 20),          // diagnose
            InputEvent::click(42, 4),           // market
            InputEvent::drag(12, 12, 60, 20),   // take fan
            InputEvent::click(42, 4),           // back
            InputEvent::apply("fan", 25, 20),   // fix
        ]);
        let graph = Arc::new(fix_the_computer());
        let run = run_session(graph, config(), &mut bot, 20, 100, &Obs::noop(), "").unwrap();
        assert_eq!(run.state.ended.as_deref(), Some("fixed"));
        assert_eq!(run.state.score, 25);
        assert_eq!(run.steps, 5);
        assert!(run.inventory.has_reward("computer_medic"));
    }

    #[test]
    fn guided_bot_solves_the_paper_game() {
        let mut bot = GuidedBot::new();
        let graph = Arc::new(fix_the_computer());
        let run = run_session(graph, config(), &mut bot, 100, 100, &Obs::noop(), "").unwrap();
        assert_eq!(run.state.ended.as_deref(), Some("fixed"), "log: {:?}", run.log.events());
        assert!(run.steps < 30, "guided bot took {} steps", run.steps);
        assert!(run.log.knowledge_events() >= 2);
    }

    #[test]
    fn guided_bot_solves_two_room_loop() {
        let mut bot = GuidedBot::new();
        let graph = Arc::new(two_room_loop());
        let run = run_session(graph, config(), &mut bot, 50, 0, &Obs::noop(), "").unwrap();
        assert_eq!(run.state.ended.as_deref(), Some("done"));
    }

    #[test]
    fn random_bot_eventually_does_things() {
        let mut bot = RandomBot::new(StdRng::seed_from_u64(7));
        let graph = Arc::new(fix_the_computer());
        let run = run_session(graph, config(), &mut bot, 300, 50, &Obs::noop(), "").unwrap();
        // It must at least have made decisions and triggered something.
        assert!(run.log.decisions() > 100 || run.state.is_over());
        assert!(!run.log.is_empty());
    }

    #[test]
    fn random_bot_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut bot = RandomBot::new(StdRng::seed_from_u64(seed));
            run_session(Arc::new(fix_the_computer()), config(), &mut bot, 100, 50, &Obs::noop(), "")
                .unwrap()
                .log
                .events()
                .to_vec()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn guided_beats_random_on_completion() {
        // The EXP-9 headline: guided players complete; random ones rarely
        // do within the same budget.
        let graph = Arc::new(fix_the_computer());
        let mut guided_done = 0;
        let mut random_done = 0;
        for seed in 0..10u64 {
            let mut g = GuidedBot::new();
            if run_session(graph.clone(), config(), &mut g, 60, 50, &Obs::noop(), "")
                .unwrap()
                .state
                .is_over()
            {
                guided_done += 1;
            }
            let mut r = RandomBot::new(StdRng::seed_from_u64(seed));
            if run_session(graph.clone(), config(), &mut r, 60, 50, &Obs::noop(), "")
                .unwrap()
                .state
                .is_over()
            {
                random_done += 1;
            }
        }
        assert_eq!(guided_done, 10);
        assert!(random_done < guided_done, "random {random_done} vs guided {guided_done}");
    }

    #[test]
    fn obs_observed_run_matches_plain_run_and_exports_one_trace() {
        let obs = Obs::recording();
        let mut bot = GuidedBot::new();
        let observed = run_session(
            Arc::new(fix_the_computer()),
            config(),
            &mut bot,
            100,
            50,
            &obs,
            "bot-0000",
        )
        .unwrap();
        // Observation does not perturb the run.
        let mut bot2 = GuidedBot::new();
        let graph = Arc::new(fix_the_computer());
        let plain = run_session(graph, config(), &mut bot2, 100, 50, &Obs::noop(), "").unwrap();
        assert_eq!(observed.steps, plain.steps);
        assert_eq!(observed.state.score, plain.state.score);
        assert_eq!(observed.state.ended, plain.state.ended);
        let snap = obs.snapshot();
        // One `input` event per decision, one trace for the session.
        assert_eq!(snap.span_count("input"), observed.steps);
        assert_eq!(snap.traces.len(), 1);
        assert_eq!(snap.traces[0].label, "bot-0000");
        assert_eq!(snap.traces[0].spans[0].name, "session");
        // Engine counters flowed into the same registry: every decision
        // plus the interleaved clock ticks went through `handle`.
        let inputs = snap.counter_total("engine.inputs");
        assert!(inputs >= observed.steps as u64, "{inputs} < {}", observed.steps);
        assert!(inputs <= observed.steps as u64 * 2, "{inputs} > 2x steps");
    }

    #[test]
    fn run_session_respects_step_budget() {
        let mut bot = ScriptedBot::new(std::iter::repeat_n(InputEvent::click(0, 0), 500));
        let graph = Arc::new(two_room_loop());
        let run = run_session(graph, config(), &mut bot, 10, 0, &Obs::noop(), "").unwrap();
        assert_eq!(run.steps, 10);
    }
}

#[cfg(test)]
mod explorer_tests {
    use super::*;
    use crate::fixtures::{fix_the_computer, FRAME};

    fn config() -> SessionConfig {
        SessionConfig::for_frame(FRAME.0, FRAME.1)
    }

    #[test]
    fn explorer_completes_and_sees_more_than_guided() {
        let graph = Arc::new(fix_the_computer());
        let mut guided = GuidedBot::new();
        let g = run_session(graph.clone(), config(), &mut guided, 150, 50, &Obs::noop(), "")
            .unwrap();
        let mut explorer = ExplorerBot::new();
        let e = run_session(graph, config(), &mut explorer, 150, 50, &Obs::noop(), "").unwrap();
        assert_eq!(e.state.ended.as_deref(), Some("fixed"), "log: {:?}", e.log.events());
        assert!(
            e.log.knowledge_events() >= g.log.knowledge_events(),
            "explorer {} vs guided {}",
            e.log.knowledge_events(),
            g.log.knowledge_events()
        );
        // The explorer walked dialogue branches the guided bot skipped.
        assert!(e.log.knowledge_events() > 3);
    }

    #[test]
    fn explorer_visits_every_scenario() {
        let graph = Arc::new(fix_the_computer());
        let mut explorer = ExplorerBot::new();
        let run = run_session(graph.clone(), config(), &mut explorer, 150, 50, &Obs::noop(), "")
            .unwrap();
        for s in graph.scenarios() {
            assert!(run.state.visited.contains(&s.name), "missed {}", s.name);
        }
    }

    #[test]
    fn explorer_is_deterministic() {
        let graph = Arc::new(fix_the_computer());
        let run = |_: ()| {
            let mut bot = ExplorerBot::new();
            run_session(graph.clone(), config(), &mut bot, 150, 50, &Obs::noop(), "")
                .unwrap()
                .log
                .events()
                .to_vec()
        };
        assert_eq!(run(()), run(()));
    }
}
