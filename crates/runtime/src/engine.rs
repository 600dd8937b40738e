//! The interaction engine — the paper's "runtime environment".
//!
//! A [`GameSession`] owns one player's live state over a shared
//! [`SceneGraph`]. Every [`InputEvent`] is hit-tested against the current
//! scenario's objects, matching triggers are dispatched through the
//! condition engine, and the resulting actions are executed — producing
//! [`Feedback`] for the UI and [`LogEvent`]s for the analytics.
//!
//! Default interaction semantics (on top of authored triggers):
//!
//! * clicking an `Item` with no `click` trigger pops up its description
//!   (examination, §3.1);
//! * clicking an `NpcAnchor` with no `click` trigger opens its fixed
//!   conversation (walked with [`InputEvent::Choose`]);
//! * dragging a takeable `Item` into the inventory window collects it
//!   under the object's name (§3.1), in addition to any `drag` triggers;
//! * clicking empty video walks the avatar.

use std::collections::BTreeSet;
use std::sync::Arc;

use vgbl_obs::{Counter, Obs};
use vgbl_scene::{ObjectKind, Rect, SceneGraph, Scenario};
use vgbl_script::{Action, EventKind, TriggerSet};

use crate::analytics::{LogEvent, SessionLog};
use crate::error::RuntimeError;
use crate::feedback::Feedback;
use crate::input::InputEvent;
use crate::inventory::Inventory;
use crate::save::SaveGame;
use crate::state::{GameEnv, GameState};
use crate::Result;

/// Most scenario transitions one input may cause before the engine calls
/// it an authoring loop.
const MAX_HOPS: usize = 8;

/// Static configuration of a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Video frame size `(width, height)` in pixels.
    pub frame_size: (u32, u32),
    /// The inventory window's region: drags ending here collect items.
    pub inventory_window: Rect,
    /// Adventure-style reach: when set, the avatar must be within this
    /// many pixels of an object to interact with it — clicking something
    /// out of reach walks the avatar toward it instead ("users can
    /// manipulate the avatar in a game scenario", §4.3). `None` (the
    /// default) is classic point-and-click.
    pub reach: Option<u32>,
}

impl SessionConfig {
    /// A config for the given frame size with the inventory window
    /// docked to the right quarter of the frame, like Figure 2.
    pub fn for_frame(width: u32, height: u32) -> SessionConfig {
        let win_w = (width / 4).max(1);
        SessionConfig {
            frame_size: (width, height),
            inventory_window: Rect::new((width - win_w) as i32, 0, win_w, height),
            reach: None,
        }
    }

    /// The same config with adventure-style reach enabled.
    pub fn with_reach(mut self, reach: u32) -> SessionConfig {
        self.reach = Some(reach);
        self
    }
}

/// Engine-side observability counters (all noop until
/// [`GameSession::set_obs`] attaches real handles). Kept separate from
/// the analytics [`SessionLog`] on purpose: the log is gameplay data,
/// these count engine work.
#[derive(Debug, Clone, Default)]
struct EngObs {
    /// Input events accepted by [`GameSession::handle`].
    inputs: Counter,
    /// Trigger-set dispatches (per object or entry set consulted).
    dispatches: Counter,
    /// Actions actually executed by the engine.
    actions: Counter,
    /// Scenario transitions performed.
    scenario_changes: Counter,
}

/// An active NPC conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DialogueState {
    /// The NPC being talked to.
    pub npc: String,
    /// The current node in the NPC's dialogue tree.
    pub node: u32,
}

/// One player's live session.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vgbl_runtime::engine::{GameSession, SessionConfig};
/// use vgbl_runtime::fixtures::{fix_the_computer, FRAME};
/// use vgbl_runtime::input::InputEvent;
///
/// let (mut session, _entry_feedback) = GameSession::new(
///     Arc::new(fix_the_computer()),
///     SessionConfig::for_frame(FRAME.0, FRAME.1),
/// )
/// .unwrap();
///
/// // Examine the computer: its authored click trigger diagnoses the fault.
/// session.handle(InputEvent::click(25, 20)).unwrap();
/// assert!(session.state().flag("diagnosed"));
/// assert_eq!(session.state().score, 5);
/// ```
#[derive(Debug, Clone)]
pub struct GameSession {
    graph: Arc<SceneGraph>,
    config: SessionConfig,
    state: GameState,
    inventory: Inventory,
    log: SessionLog,
    /// Timer thresholds already fired since the current scenario entry.
    fired_timers: BTreeSet<u64>,
    /// The conversation in progress, if any (transient: not saved).
    dialogue: Option<DialogueState>,
    obs: EngObs,
}

impl GameSession {
    /// Starts a session at the graph's start scenario, firing its entry
    /// triggers.
    ///
    /// # Errors
    /// [`RuntimeError::UnplayableGame`] when validation finds errors
    /// (worked out once per graph, see [`SceneGraph::validation_errors`]).
    pub fn new(graph: Arc<SceneGraph>, config: SessionConfig) -> Result<(GameSession, Vec<Feedback>)> {
        let errors = graph.validation_errors();
        if !errors.is_empty() {
            let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
            return Err(RuntimeError::UnplayableGame(msgs.join("; ")));
        }
        let start_id = graph.start()?;
        let start_name = graph
            .scenario(start_id)
            .expect("start id is valid")
            .name
            .clone();
        let mut session = GameSession {
            graph,
            config,
            state: GameState::new(start_name.clone()),
            inventory: Inventory::new(),
            log: SessionLog::new(),
            fired_timers: BTreeSet::new(),
            dialogue: None,
            obs: EngObs::default(),
        };
        session.log.push(LogEvent::ScenarioEntered { t_ms: 0, name: start_name });
        let mut feedback = Vec::new();
        let actions = session.collect_scenario_event(&EventKind::Enter)?;
        session.run_actions(actions, &mut feedback, 0)?;
        Ok((session, feedback))
    }

    /// Restores a session from previously saved state (no entry triggers
    /// fire — the player resumes mid-scenario).
    pub fn restore(
        graph: Arc<SceneGraph>,
        config: SessionConfig,
        state: GameState,
        inventory: Inventory,
    ) -> Result<GameSession> {
        graph.require_scenario(&state.current_scenario)?;
        Ok(GameSession {
            graph,
            config,
            state,
            inventory,
            log: SessionLog::new(),
            fired_timers: BTreeSet::new(),
            dialogue: None,
            obs: EngObs::default(),
        })
    }

    /// Snapshots everything needed to resume this session bit-exactly:
    /// a [`SaveGame`] capture plus the engine transients a plain save
    /// deliberately drops (the open dialogue and the timers already
    /// fired this scenario entry). The supervisor's checkpoint store
    /// holds these.
    pub fn checkpoint(&self) -> SaveGame {
        let mut save = SaveGame::capture(&self.graph, &self.state, &self.inventory);
        save.dialogue = self.dialogue.as_ref().map(|d| (d.npc.clone(), d.node));
        save.fired_timers = self.fired_timers.clone();
        save
    }

    /// Restores a session from a checkpoint, reinstating the engine
    /// transients [`GameSession::restore`] clears: an open dialogue
    /// resumes at its node, and fired timers stay fired instead of
    /// firing twice. The restored session's log starts empty — replaying
    /// the post-checkpoint inputs reproduces the original log tail
    /// bit-identically.
    ///
    /// # Errors
    /// [`RuntimeError::SaveMismatch`] when the checkpoint belongs to a
    /// different graph; [`RuntimeError::UnknownScenario`] when its
    /// scenario no longer exists.
    pub fn restore_checkpoint(
        graph: Arc<SceneGraph>,
        config: SessionConfig,
        save: &SaveGame,
    ) -> Result<GameSession> {
        save.verify(&graph)?;
        let mut session =
            GameSession::restore(graph, config, save.state.clone(), save.inventory.clone())?;
        session.fired_timers = save.fired_timers.clone();
        session.dialogue = save
            .dialogue
            .as_ref()
            .map(|(npc, node)| DialogueState { npc: npc.clone(), node: *node });
        Ok(session)
    }

    /// Routes engine counters (`engine.inputs` / `engine.dispatches` /
    /// `engine.actions` / `engine.scenario_changes`, labelled
    /// `pillar=runtime`) into `obs`. A [`Obs::noop`] handle (the
    /// default) makes every increment a single `Option` check.
    pub fn set_obs(&mut self, obs: &Obs) {
        let labels: &[(&str, &str)] = &[("pillar", "runtime")];
        self.obs = EngObs {
            inputs: obs.counter("engine.inputs", labels),
            dispatches: obs.counter("engine.dispatches", labels),
            actions: obs.counter("engine.actions", labels),
            scenario_changes: obs.counter("engine.scenario_changes", labels),
        };
    }

    /// The shared content graph.
    pub fn graph(&self) -> &SceneGraph {
        &self.graph
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Current game state (read-only).
    pub fn state(&self) -> &GameState {
        &self.state
    }

    /// The backpack (read-only).
    pub fn inventory(&self) -> &Inventory {
        &self.inventory
    }

    /// The analytics log so far.
    pub fn log(&self) -> &SessionLog {
        &self.log
    }

    /// The scenario the player is currently in.
    pub fn current_scenario(&self) -> &Scenario {
        self.graph
            .scenario_by_name(&self.state.current_scenario)
            .expect("current scenario always valid")
    }

    /// The currently visible objects, in authoring order — what a player
    /// (or a bot) can actually see and interact with.
    pub fn visible_objects(&self) -> Result<Vec<&vgbl_scene::InteractiveObject>> {
        let env = self.env();
        let mut out = Vec::new();
        for o in self.current_scenario().objects() {
            if o.is_visible(&env)? {
                out.push(o);
            }
        }
        Ok(out)
    }

    /// Handles one input event, returning the ordered feedback.
    ///
    /// # Errors
    /// [`RuntimeError::GameOver`] once the game ended; script/scene errors
    /// from authored conditions propagate.
    pub fn handle(&mut self, input: InputEvent) -> Result<Vec<Feedback>> {
        if let Some(outcome) = &self.state.ended {
            return Err(RuntimeError::GameOver { outcome: outcome.clone() });
        }
        self.obs.inputs.inc();
        if input.is_decision() {
            self.log.push(LogEvent::Decision {
                t_ms: self.state.total_clock_ms,
                kind: input.tag().to_owned(),
            });
        }
        let mut feedback = Vec::new();
        // A conversation absorbs `Choose` and is politely dropped by any
        // other decision input; time keeps flowing through it.
        if self.dialogue.is_some() {
            match &input {
                InputEvent::Choose(i) => {
                    self.on_choose(*i, &mut feedback)?;
                    if feedback.is_empty() {
                        feedback.push(Feedback::NothingHappened);
                    }
                    return Ok(feedback);
                }
                InputEvent::Tick(_) => {}
                _ => {
                    self.dialogue = None;
                    feedback.push(Feedback::DialogueEnded);
                }
            }
        }
        match input {
            InputEvent::Click(p) => self.on_click(p, &mut feedback)?,
            InputEvent::Drag { from, to } => self.on_drag(from, to, &mut feedback)?,
            InputEvent::ApplyItem { item, at } => self.on_apply(&item, at, &mut feedback)?,
            InputEvent::Key(c) => self.on_key(c, &mut feedback)?,
            InputEvent::Choose(_) => {} // no conversation: inert
            InputEvent::Tick(ms) => self.on_tick(ms, &mut feedback)?,
        }
        if feedback.is_empty() {
            feedback.push(Feedback::NothingHappened);
        }
        Ok(feedback)
    }

    /// The active conversation, if any.
    pub fn dialogue(&self) -> Option<&DialogueState> {
        self.dialogue.as_ref()
    }

    /// The response options currently offered (empty when not talking).
    pub fn dialogue_choices(&self) -> Vec<String> {
        match &self.dialogue {
            Some(d) => self
                .graph
                .npc(&d.npc)
                .and_then(|n| n.dialogue.get(d.node))
                .map(|node| node.choices.iter().map(|c| c.text.clone()).collect())
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Speaks the node the dialogue cursor points at and either offers
    /// its choices or ends the conversation at a leaf.
    fn speak_current_node(&mut self, feedback: &mut Vec<Feedback>) {
        let Some(d) = self.dialogue.clone() else {
            return;
        };
        let Some(node) = self.graph.npc(&d.npc).and_then(|n| n.dialogue.get(d.node)).cloned()
        else {
            self.dialogue = None;
            feedback.push(Feedback::DialogueEnded);
            return;
        };
        self.log.push(LogEvent::NpcTalked {
            t_ms: self.state.total_clock_ms,
            npc: d.npc.clone(),
        });
        feedback.push(Feedback::NpcLine { npc: d.npc.clone(), line: node.line.clone() });
        if node.choices.is_empty() {
            self.dialogue = None;
            feedback.push(Feedback::DialogueEnded);
        } else {
            feedback.push(Feedback::DialogueChoices(
                node.choices.iter().map(|c| c.text.clone()).collect(),
            ));
        }
    }

    fn on_choose(&mut self, index: usize, feedback: &mut Vec<Feedback>) -> Result<()> {
        let Some(d) = self.dialogue.clone() else {
            return Ok(());
        };
        let node = self
            .graph
            .npc(&d.npc)
            .and_then(|n| n.dialogue.get(d.node))
            .cloned();
        let Some(node) = node else {
            self.dialogue = None;
            feedback.push(Feedback::DialogueEnded);
            return Ok(());
        };
        let Some(choice) = node.choices.get(index) else {
            // Out-of-range pick: re-offer the same options.
            feedback.push(Feedback::DialogueChoices(
                node.choices.iter().map(|c| c.text.clone()).collect(),
            ));
            return Ok(());
        };
        match choice.next {
            Some(next) => {
                self.dialogue = Some(DialogueState { npc: d.npc, node: next });
                self.speak_current_node(feedback);
            }
            None => {
                self.dialogue = None;
                feedback.push(Feedback::DialogueEnded);
            }
        }
        Ok(())
    }

    fn env(&self) -> GameEnv<'_> {
        GameEnv { state: &self.state, inventory: &self.inventory }
    }

    /// Whether the avatar can currently reach an object with the given
    /// bounds (always true in classic point-and-click mode).
    fn within_reach(&self, bounds: &Rect) -> bool {
        match self.config.reach {
            None => true,
            Some(r) => {
                let (ax, ay) = self.state.avatar;
                let c = bounds.center();
                let dx = (ax - c.x) as i64;
                let dy = (ay - c.y) as i64;
                dx * dx + dy * dy <= (r as i64) * (r as i64)
            }
        }
    }

    /// Walks the avatar to `p` (the out-of-reach and empty-click cases).
    fn walk_avatar(&mut self, p: vgbl_scene::Point, feedback: &mut Vec<Feedback>) {
        self.state.avatar = (p.x, p.y);
        feedback.push(Feedback::AvatarMoved { x: p.x, y: p.y });
    }

    fn on_click(&mut self, p: vgbl_scene::Point, feedback: &mut Vec<Feedback>) -> Result<()> {
        let scenario = self.current_scenario();
        let hit = scenario.topmost_at(p, &self.env())?.map(|o| o.id);
        match hit {
            None => {
                self.walk_avatar(p, feedback);
            }
            Some(oid) => {
                let scenario = self.current_scenario();
                let object = scenario.object(oid).expect("hit id valid");
                if !self.within_reach(&object.bounds) {
                    // Out of reach: walk toward it first.
                    self.walk_avatar(p, feedback);
                    return Ok(());
                }
                let obj_name = object.name.clone();
                let had_click_trigger = object.listens_for(&EventKind::Click);
                let mut default_text: Option<String> = None;
                let mut start_dialogue: Option<String> = None;
                match &object.kind {
                    ObjectKind::Item { description, .. } if !had_click_trigger => {
                        default_text = Some(description.clone());
                    }
                    ObjectKind::NpcAnchor { npc } if !had_click_trigger
                        // Start (or restart) the fixed conversation.
                        && self.graph.npc(npc).is_some_and(|n| !n.dialogue.is_empty()) => {
                            start_dialogue = Some(npc.clone());
                        }
                    _ => {}
                }
                self.obs.dispatches.inc();
                let actions = object.triggers.dispatch(&EventKind::Click, &self.env())?;

                self.state.examined.insert(obj_name.clone());
                self.log.push(LogEvent::ObjectExamined {
                    t_ms: self.state.total_clock_ms,
                    scenario: self.state.current_scenario.clone(),
                    object: obj_name,
                });
                if let Some(text) = default_text {
                    self.log.push(LogEvent::KnowledgeDelivered {
                        t_ms: self.state.total_clock_ms,
                        kind: "text".into(),
                    });
                    feedback.push(Feedback::Text(text));
                }
                if let Some(npc) = start_dialogue {
                    self.dialogue = Some(DialogueState { npc, node: 0 });
                    self.speak_current_node(feedback);
                }
                self.run_actions(actions, feedback, 0)?;
            }
        }
        Ok(())
    }

    fn on_drag(
        &mut self,
        from: vgbl_scene::Point,
        to: vgbl_scene::Point,
        feedback: &mut Vec<Feedback>,
    ) -> Result<()> {
        let scenario = self.current_scenario();
        let hit = scenario.topmost_at(from, &self.env())?.map(|o| o.id);
        let Some(oid) = hit else {
            return Ok(());
        };
        let object = self.current_scenario().object(oid).expect("hit id valid");
        if !self.within_reach(&object.bounds) {
            self.walk_avatar(from, feedback);
            return Ok(());
        }
        let object = self.current_scenario().object(oid).expect("hit id valid");
        let obj_name = object.name.clone();
        let takeable = object.is_takeable();
        self.obs.dispatches.inc();
        let actions = object.triggers.dispatch(&EventKind::Drag, &self.env())?;

        if self.config.inventory_window.contains(to) && takeable {
            self.inventory.add(obj_name.clone());
            self.log.push(LogEvent::ItemTaken {
                t_ms: self.state.total_clock_ms,
                item: obj_name.clone(),
            });
            feedback.push(Feedback::ItemAdded(obj_name));
        }
        self.run_actions(actions, feedback, 0)?;
        Ok(())
    }

    fn on_apply(
        &mut self,
        item: &str,
        at: vgbl_scene::Point,
        feedback: &mut Vec<Feedback>,
    ) -> Result<()> {
        if !self.inventory.has(item) {
            return Ok(());
        }
        let scenario = self.current_scenario();
        let hit = scenario.topmost_at(at, &self.env())?.map(|o| o.id);
        let Some(oid) = hit else {
            return Ok(());
        };
        let object = self.current_scenario().object(oid).expect("hit id valid");
        if !self.within_reach(&object.bounds) {
            self.walk_avatar(at, feedback);
            return Ok(());
        }
        let object = self.current_scenario().object(oid).expect("hit id valid");
        let obj_name = object.name.clone();
        let event = EventKind::Use(item.to_owned());
        self.obs.dispatches.inc();
        let actions = object.triggers.dispatch(&event, &self.env())?;
        if !actions.is_empty() {
            self.log.push(LogEvent::ItemUsed {
                t_ms: self.state.total_clock_ms,
                item: item.to_owned(),
                object: obj_name,
            });
        }
        self.run_actions(actions, feedback, 0)?;
        Ok(())
    }

    fn on_key(&mut self, c: char, feedback: &mut Vec<Feedback>) -> Result<()> {
        // Keyboard events are scenario-global: every visible object that
        // listens receives them, in draw (z) order.
        let event = EventKind::Key(c);
        let scenario = self.current_scenario();
        let mut all_actions = Vec::new();
        {
            let env = self.env();
            for object in scenario.draw_order() {
                if object.is_visible(&env)? {
                    self.obs.dispatches.inc();
                    all_actions.extend(object.triggers.dispatch(&event, &env)?);
                }
            }
            self.obs.dispatches.inc();
            all_actions.extend(scenario.entry_triggers.dispatch(&event, &env)?);
        }
        self.run_actions(all_actions, feedback, 0)?;
        Ok(())
    }

    fn on_tick(&mut self, ms: u64, feedback: &mut Vec<Feedback>) -> Result<()> {
        let old = self.state.scenario_clock_ms;
        let new = old.saturating_add(ms);
        self.state.scenario_clock_ms = new;
        self.state.total_clock_ms = self.state.total_clock_ms.saturating_add(ms);

        // Collect timer thresholds crossed by this tick, ascending.
        let mut thresholds: Vec<u64> = Vec::new();
        let scenario_name;
        {
            let scenario = self.current_scenario();
            scenario_name = scenario.name.clone();
            let fired = &self.fired_timers;
            let mut scan = |set: &TriggerSet| {
                for t in set.triggers() {
                    if let EventKind::Timer(th) = t.event {
                        if th > old && th <= new && !fired.contains(&th) {
                            thresholds.push(th);
                        }
                    }
                }
            };
            scan(&scenario.entry_triggers);
            for o in scenario.objects() {
                scan(&o.triggers);
            }
        }
        thresholds.sort_unstable();
        thresholds.dedup();

        for th in thresholds {
            // Re-check the scenario each round: a timer's goto may move us.
            if self.state.current_scenario != scenario_name {
                break;
            }
            self.fired_timers.insert(th);
            let actions = self.collect_scenario_event(&EventKind::Timer(th))?;
            self.run_actions(actions, feedback, 0)?;
            if self.state.is_over() {
                break;
            }
        }
        Ok(())
    }

    /// Dispatches a scenario-wide event (Enter / Timer) across the entry
    /// trigger set and every object's triggers.
    fn collect_scenario_event(&self, event: &EventKind) -> Result<Vec<Action>> {
        let scenario = self.current_scenario();
        let env = self.env();
        self.obs.dispatches.inc();
        let mut actions = scenario.entry_triggers.dispatch(event, &env)?;
        for o in scenario.objects() {
            self.obs.dispatches.inc();
            actions.extend(o.triggers.dispatch(event, &env)?);
        }
        Ok(actions)
    }

    /// Executes actions in order. `hops` counts scenario transitions in
    /// the current input-handling chain.
    fn run_actions(
        &mut self,
        actions: Vec<Action>,
        feedback: &mut Vec<Feedback>,
        hops: usize,
    ) -> Result<()> {
        for action in actions {
            if self.state.is_over() {
                break;
            }
            self.obs.actions.inc();
            match action {
                Action::GoTo(target) => {
                    self.enter_scenario(&target, feedback, hops + 1)?;
                }
                Action::ShowText(text) => {
                    self.log.push(LogEvent::KnowledgeDelivered {
                        t_ms: self.state.total_clock_ms,
                        kind: "text".into(),
                    });
                    feedback.push(Feedback::Text(text));
                }
                Action::ShowImage(asset) => {
                    self.log.push(LogEvent::KnowledgeDelivered {
                        t_ms: self.state.total_clock_ms,
                        kind: "image".into(),
                    });
                    feedback.push(Feedback::Image(asset));
                }
                Action::OpenUrl(url) => {
                    self.log.push(LogEvent::KnowledgeDelivered {
                        t_ms: self.state.total_clock_ms,
                        kind: "web".into(),
                    });
                    feedback.push(Feedback::WebPage(url));
                }
                Action::GiveItem(item) => {
                    self.inventory.add(item.clone());
                    self.log.push(LogEvent::ItemTaken {
                        t_ms: self.state.total_clock_ms,
                        item: item.clone(),
                    });
                    feedback.push(Feedback::ItemAdded(item));
                }
                Action::TakeItem(item) => {
                    if self.inventory.remove(&item) {
                        feedback.push(Feedback::ItemRemoved(item));
                    }
                }
                Action::SetFlag(name, on) => {
                    self.state.set_flag(name, on);
                }
                Action::AddScore(delta) => {
                    self.state.score = self.state.score.saturating_add(delta);
                    self.log.push(LogEvent::ScoreDelta {
                        t_ms: self.state.total_clock_ms,
                        delta,
                    });
                    feedback.push(Feedback::ScoreChanged { delta, total: self.state.score });
                }
                Action::Award(name) => {
                    if self.inventory.award(name.clone()) {
                        self.log.push(LogEvent::RewardEarned {
                            t_ms: self.state.total_clock_ms,
                            name: name.clone(),
                        });
                        feedback.push(Feedback::RewardGranted(name));
                    }
                }
                Action::Say { npc, line } => {
                    self.log.push(LogEvent::NpcTalked {
                        t_ms: self.state.total_clock_ms,
                        npc: npc.clone(),
                    });
                    feedback.push(Feedback::NpcLine { npc, line });
                }
                Action::End(outcome) => {
                    self.state.ended = Some(outcome.clone());
                    self.log.push(LogEvent::Ended {
                        t_ms: self.state.total_clock_ms,
                        outcome: outcome.clone(),
                    });
                    feedback.push(Feedback::GameEnded(outcome));
                }
            }
        }
        Ok(())
    }

    /// Switches the current scenario, firing entry triggers.
    fn enter_scenario(
        &mut self,
        target: &str,
        feedback: &mut Vec<Feedback>,
        hops: usize,
    ) -> Result<()> {
        if hops > MAX_HOPS {
            return Err(RuntimeError::TransitionLoop { at: target.to_owned() });
        }
        if self.graph.scenario_by_name(target).is_none() {
            return Err(RuntimeError::UnknownScenario(target.to_owned()));
        }
        self.obs.scenario_changes.inc();
        let from = std::mem::replace(&mut self.state.current_scenario, target.to_owned());
        self.state.visited.insert(target.to_owned());
        self.state.scenario_clock_ms = 0;
        self.fired_timers.clear();
        self.dialogue = None; // walking away ends any conversation
        self.log.push(LogEvent::ScenarioEntered {
            t_ms: self.state.total_clock_ms,
            name: target.to_owned(),
        });
        feedback.push(Feedback::ScenarioChanged { from, to: target.to_owned() });
        let actions = self.collect_scenario_event(&EventKind::Enter)?;
        self.run_actions(actions, feedback, hops)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fix_the_computer, two_room_loop, FRAME};
    use vgbl_media::SegmentId;
    use vgbl_script::Trigger;

    fn start(graph: SceneGraph) -> (GameSession, Vec<Feedback>) {
        GameSession::new(
            Arc::new(graph),
            SessionConfig::for_frame(FRAME.0, FRAME.1),
        )
        .unwrap()
    }

    #[test]
    fn session_starts_at_start_scenario_and_fires_entry() {
        let (session, feedback) = start(fix_the_computer());
        assert_eq!(session.state().current_scenario, "classroom");
        // The greeting entry trigger fired exactly once.
        assert!(feedback.iter().any(|f| matches!(
            f,
            Feedback::NpcLine { npc, .. } if npc == "teacher"
        )));
        assert!(session.state().flag("greeted"));
    }

    #[test]
    fn unplayable_game_rejected() {
        let mut g = two_room_loop();
        g.scenario_by_name_mut("a")
            .unwrap()
            .entry_triggers
            .push(Trigger::unconditional(
                EventKind::Enter,
                vec![Action::GoTo("nowhere".into())],
            ));
        let err = GameSession::new(Arc::new(g), SessionConfig::for_frame(64, 48)).unwrap_err();
        assert!(matches!(err, RuntimeError::UnplayableGame(_)));
    }

    #[test]
    fn click_on_nothing_moves_avatar() {
        let (mut session, _) = start(fix_the_computer());
        let fb = session.handle(InputEvent::click(60, 45)).unwrap();
        assert_eq!(fb, vec![Feedback::AvatarMoved { x: 60, y: 45 }]);
        assert_eq!(session.state().avatar, (60, 45));
    }

    #[test]
    fn click_examines_item_with_authored_trigger() {
        let (mut session, _) = start(fix_the_computer());
        // The computer sits at (20,16)-(36,28).
        let fb = session.handle(InputEvent::click(25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(t) if t.contains("cooling fan"))));
        assert!(fb.iter().any(|f| matches!(f, Feedback::ScoreChanged { delta: 5, total: 5 })));
        assert!(session.state().flag("diagnosed"));
        assert!(session.state().examined.contains("computer"));
        // Second click hits the "needs replacement" branch.
        let fb = session.handle(InputEvent::click(25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(t) if t.contains("replacement"))));
        assert_eq!(session.state().score, 5); // no double score
    }

    #[test]
    fn click_npc_walks_dialogue_entry() {
        let (mut session, _) = start(fix_the_computer());
        let fb = session.handle(InputEvent::click(5, 10)).unwrap();
        assert!(fb.iter().any(|f| matches!(
            f,
            Feedback::NpcLine { npc, line } if npc == "teacher" && line.contains("not working")
        )));
    }

    #[test]
    fn full_playthrough_of_the_paper_example() {
        let (mut session, _) = start(fix_the_computer());
        // 1. Examine the computer → diagnose.
        session.handle(InputEvent::click(25, 20)).unwrap();
        // 2. Go to the market.
        let fb = session.handle(InputEvent::click(42, 4)).unwrap();
        assert!(fb.contains(&Feedback::ScenarioChanged {
            from: "classroom".into(),
            to: "market".into()
        }));
        assert_eq!(session.state().current_scenario, "market");
        // 3. Drag the fan into the inventory window (right quarter).
        let fb = session.handle(InputEvent::drag(12, 12, 60, 20)).unwrap();
        assert!(fb.contains(&Feedback::ItemAdded("fan".into())));
        assert!(session.inventory().has("fan"));
        // The stall is now empty (visibility condition) — clicking there
        // moves the avatar instead.
        let fb = session.handle(InputEvent::click(12, 12)).unwrap();
        assert_eq!(fb, vec![Feedback::AvatarMoved { x: 12, y: 12 }]);
        // 4. Back to the classroom.
        session.handle(InputEvent::click(42, 4)).unwrap();
        assert_eq!(session.state().current_scenario, "classroom");
        // 5. Apply the fan to the computer.
        let fb = session.handle(InputEvent::apply("fan", 25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(t) if t.contains("boots"))));
        assert!(fb.contains(&Feedback::ItemRemoved("fan".into())));
        assert!(fb.contains(&Feedback::RewardGranted("computer_medic".into())));
        assert!(fb.contains(&Feedback::GameEnded("fixed".into())));
        assert_eq!(session.state().score, 25);
        assert!(session.inventory().has_reward("computer_medic"));
        assert!(!session.inventory().has("fan"));
        assert_eq!(session.state().ended.as_deref(), Some("fixed"));
        // Analytics recorded the journey.
        let log = session.log();
        assert_eq!(log.outcome(), Some("fixed"));
        assert!(log.decisions() >= 5);
        assert!(log.rewards() == 1);
        // 6. Input after the end is rejected.
        assert!(matches!(
            session.handle(InputEvent::click(0, 0)),
            Err(RuntimeError::GameOver { .. })
        ));
    }

    #[test]
    fn obs_engine_counters_track_the_playthrough() {
        let obs = Obs::recording();
        let (mut session, _) = start(fix_the_computer());
        session.set_obs(&obs);
        session.handle(InputEvent::click(25, 20)).unwrap(); // diagnose
        session.handle(InputEvent::click(42, 4)).unwrap(); // market
        session.handle(InputEvent::drag(12, 12, 60, 20)).unwrap(); // take fan
        session.handle(InputEvent::click(42, 4)).unwrap(); // back
        session.handle(InputEvent::apply("fan", 25, 20)).unwrap(); // fix → end
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("engine.inputs"), 5);
        // Two door clicks + two scenario-entry dispatch rounds.
        assert_eq!(snap.counter_total("engine.scenario_changes"), 2);
        // Every transition re-dispatches Enter across the scenario, so
        // dispatches strictly exceed inputs.
        assert!(snap.counter_total("engine.dispatches") > 5);
        // Diagnose (text+flag+score), two gotos, drag text, and the
        // final fix chain all execute actions.
        assert!(snap.counter_total("engine.actions") >= 8);
        // A session without set_obs contributes nothing: counters are
        // exactly the five inputs above, not doubled by `start`'s Enter.
        let (mut silent, _) = start(fix_the_computer());
        silent.handle(InputEvent::click(25, 20)).unwrap();
        assert_eq!(obs.snapshot().counter_total("engine.inputs"), 5);
    }

    #[test]
    fn apply_without_item_or_wrong_place_is_inert() {
        let (mut session, _) = start(fix_the_computer());
        let fb = session.handle(InputEvent::apply("fan", 25, 20)).unwrap();
        assert_eq!(fb, vec![Feedback::NothingHappened]);
        // Apply before diagnosis shows the hint branch.
        session.handle(InputEvent::click(42, 4)).unwrap(); // market
        session.handle(InputEvent::drag(12, 12, 60, 20)).unwrap(); // take fan
        session.handle(InputEvent::click(42, 4)).unwrap(); // back
        let fb = session.handle(InputEvent::apply("fan", 25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(t) if t.contains("Examine"))));
        assert!(session.inventory().has("fan")); // not consumed
    }

    #[test]
    fn drag_nontakeable_to_inventory_does_not_collect() {
        let (mut session, _) = start(fix_the_computer());
        let fb = session.handle(InputEvent::drag(25, 20, 60, 20)).unwrap();
        assert_eq!(fb, vec![Feedback::NothingHappened]);
        assert!(!session.inventory().has("computer"));
    }

    #[test]
    fn drag_to_non_inventory_region_does_not_collect() {
        let (mut session, _) = start(fix_the_computer());
        session.handle(InputEvent::click(42, 4)).unwrap(); // market
        let fb = session.handle(InputEvent::drag(12, 12, 30, 30)).unwrap();
        assert!(!fb.contains(&Feedback::ItemAdded("fan".into())));
        // But the drag trigger still ran (the pick-up text is authored on
        // drag regardless of destination).
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(_))));
        assert!(!session.inventory().has("fan"));
    }

    #[test]
    fn button_opens_web_page() {
        let (mut session, _) = start(fix_the_computer());
        session.handle(InputEvent::click(42, 4)).unwrap(); // market
        let fb = session.handle(InputEvent::click(28, 12)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::WebPage(u) if u.contains("cooling"))));
    }

    #[test]
    fn timer_triggers_fire_once_per_entry() {
        let mut g = two_room_loop();
        g.scenario_by_name_mut("a")
            .unwrap()
            .entry_triggers
            .push(Trigger::unconditional(
                EventKind::Timer(1000),
                vec![Action::ShowText("hint: press the button".into())],
            ));
        let (mut session, _) = start(g);
        // Before the threshold: nothing.
        let fb = session.handle(InputEvent::Tick(500)).unwrap();
        assert_eq!(fb, vec![Feedback::NothingHappened]);
        // Crossing the threshold fires once.
        let fb = session.handle(InputEvent::Tick(600)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(t) if t.contains("hint"))));
        // Further ticks do not re-fire.
        let fb = session.handle(InputEvent::Tick(5000)).unwrap();
        assert_eq!(fb, vec![Feedback::NothingHappened]);
        // Re-entering the scenario re-arms the timer.
        session.handle(InputEvent::click(2, 2)).unwrap(); // to b
        session.handle(InputEvent::click(2, 2)).unwrap(); // back to a
        let fb = session.handle(InputEvent::Tick(1500)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(t) if t.contains("hint"))));
    }

    #[test]
    fn key_events_reach_listening_objects() {
        let mut g = two_room_loop();
        let s = g.scenario_by_name_mut("a").unwrap();
        s.object_by_name_mut("to_b").unwrap().triggers.push(Trigger::unconditional(
            EventKind::Key('n'),
            vec![Action::GoTo("b".into())],
        ));
        let (mut session, _) = start(g);
        let fb = session.handle(InputEvent::Key('x')).unwrap();
        assert_eq!(fb, vec![Feedback::NothingHappened]);
        let fb = session.handle(InputEvent::Key('n')).unwrap();
        assert!(fb
            .iter()
            .any(|f| matches!(f, Feedback::ScenarioChanged { to, .. } if to == "b")));
    }

    #[test]
    fn transition_loops_are_detected() {
        let mut g = SceneGraph::new();
        let a = g.add_scenario("ping", SegmentId(0)).unwrap();
        let b = g.add_scenario("pong", SegmentId(1)).unwrap();
        g.scenario_mut(a).unwrap().entry_triggers.push(Trigger::unconditional(
            EventKind::Enter,
            vec![Action::GoTo("pong".into())],
        ));
        g.scenario_mut(b).unwrap().entry_triggers.push(Trigger::unconditional(
            EventKind::Enter,
            vec![Action::GoTo("ping".into())],
        ));
        let err = GameSession::new(Arc::new(g), SessionConfig::for_frame(64, 48)).unwrap_err();
        assert!(matches!(err, RuntimeError::TransitionLoop { .. }));
    }

    #[test]
    fn score_saturates_instead_of_overflowing() {
        let mut g = two_room_loop();
        let s = g.scenario_by_name_mut("a").unwrap();
        s.object_by_name_mut("to_b").unwrap().triggers.push(Trigger::unconditional(
            EventKind::Key('+'),
            vec![Action::AddScore(i64::MAX)],
        ));
        let (mut session, _) = start(g);
        session.handle(InputEvent::Key('+')).unwrap();
        session.handle(InputEvent::Key('+')).unwrap();
        assert_eq!(session.state().score, i64::MAX);
    }

    #[test]
    fn restore_resumes_without_entry_triggers() {
        let graph = Arc::new(fix_the_computer());
        let config = SessionConfig::for_frame(FRAME.0, FRAME.1);
        let mut state = GameState::new("market");
        state.score = 5;
        state.set_flag("diagnosed", true);
        let mut inv = Inventory::new();
        inv.add("fan");
        let mut session =
            GameSession::restore(graph.clone(), config.clone(), state, inv).unwrap();
        assert_eq!(session.state().current_scenario, "market");
        // Resume play: go back and fix.
        session.handle(InputEvent::click(42, 4)).unwrap();
        let fb = session.handle(InputEvent::apply("fan", 25, 20)).unwrap();
        assert!(fb.contains(&Feedback::GameEnded("fixed".into())));
        // Restoring into an unknown scenario fails.
        let bad = GameState::new("moon");
        assert!(GameSession::restore(graph, config, bad, Inventory::new()).is_err());
    }

    #[test]
    fn take_item_action_on_missing_item_is_silent() {
        let mut g = two_room_loop();
        let s = g.scenario_by_name_mut("a").unwrap();
        s.object_by_name_mut("to_b").unwrap().triggers.push(Trigger::unconditional(
            EventKind::Key('t'),
            vec![Action::TakeItem("ghost".into())],
        ));
        let (mut session, _) = start(g);
        let fb = session.handle(InputEvent::Key('t')).unwrap();
        assert_eq!(fb, vec![Feedback::NothingHappened]);
    }
}

#[cfg(test)]
mod dialogue_tests {
    use super::*;
    use crate::fixtures::{fix_the_computer, FRAME};

    fn start() -> GameSession {
        GameSession::new(
            Arc::new(fix_the_computer()),
            SessionConfig::for_frame(FRAME.0, FRAME.1),
        )
        .unwrap()
        .0
    }

    #[test]
    fn clicking_npc_opens_conversation_with_choices() {
        let mut s = start();
        let fb = s.handle(InputEvent::click(5, 10)).unwrap();
        assert!(fb.iter().any(|f| matches!(
            f,
            Feedback::NpcLine { npc, line } if npc == "teacher" && line.contains("not working")
        )));
        assert!(fb.iter().any(|f| matches!(
            f,
            Feedback::DialogueChoices(c) if c.len() == 2 && c[0].contains("What happened")
        )));
        assert!(s.dialogue().is_some());
        assert_eq!(s.dialogue_choices().len(), 2);
    }

    #[test]
    fn choosing_walks_the_tree_and_ends_at_leaf() {
        let mut s = start();
        s.handle(InputEvent::click(5, 10)).unwrap(); // open
        // "What happened?" → node 1.
        let fb = s.handle(InputEvent::Choose(0)).unwrap();
        assert!(fb.iter().any(|f| matches!(
            f,
            Feedback::NpcLine { line, .. } if line.contains("part inside broke")
        )));
        // "I'll take a look." → end.
        let fb = s.handle(InputEvent::Choose(0)).unwrap();
        assert!(fb.contains(&Feedback::DialogueEnded));
        assert!(s.dialogue().is_none());
        // NPC lines were all logged.
        assert!(s.log().knowledge_events() >= 2);
    }

    #[test]
    fn direct_exit_choice_ends_immediately() {
        let mut s = start();
        s.handle(InputEvent::click(5, 10)).unwrap();
        // "I'm on it." has next = None.
        let fb = s.handle(InputEvent::Choose(1)).unwrap();
        assert_eq!(fb, vec![Feedback::DialogueEnded]);
        assert!(s.dialogue().is_none());
    }

    #[test]
    fn out_of_range_choice_reoffers() {
        let mut s = start();
        s.handle(InputEvent::click(5, 10)).unwrap();
        let fb = s.handle(InputEvent::Choose(9)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::DialogueChoices(_))));
        assert!(s.dialogue().is_some());
    }

    #[test]
    fn other_input_drops_the_conversation() {
        let mut s = start();
        s.handle(InputEvent::click(5, 10)).unwrap();
        let fb = s.handle(InputEvent::click(25, 20)).unwrap(); // examine PC
        assert_eq!(fb[0], Feedback::DialogueEnded);
        assert!(s.dialogue().is_none());
        // The click itself still processed (diagnosis happened).
        assert!(s.state().flag("diagnosed"));
    }

    #[test]
    fn ticks_do_not_interrupt_conversation() {
        let mut s = start();
        s.handle(InputEvent::click(5, 10)).unwrap();
        s.handle(InputEvent::Tick(500)).unwrap();
        assert!(s.dialogue().is_some());
    }

    #[test]
    fn scenario_change_ends_conversation() {
        let mut s = start();
        s.handle(InputEvent::click(5, 10)).unwrap();
        assert!(s.dialogue().is_some());
        s.handle(InputEvent::click(42, 4)).unwrap(); // to market
        assert!(s.dialogue().is_none());
    }

    #[test]
    fn choose_without_conversation_is_inert() {
        let mut s = start();
        let fb = s.handle(InputEvent::Choose(0)).unwrap();
        assert_eq!(fb, vec![Feedback::NothingHappened]);
    }

    #[test]
    fn reopening_restarts_at_entry() {
        let mut s = start();
        s.handle(InputEvent::click(5, 10)).unwrap();
        s.handle(InputEvent::Choose(1)).unwrap(); // exit
        let fb = s.handle(InputEvent::click(5, 10)).unwrap();
        assert!(fb.iter().any(|f| matches!(
            f,
            Feedback::NpcLine { line, .. } if line.contains("not working")
        )));
    }
}

#[cfg(test)]
mod reach_tests {
    use super::*;
    use crate::fixtures::{fix_the_computer, FRAME};

    fn adventure_session() -> GameSession {
        GameSession::new(
            Arc::new(fix_the_computer()),
            SessionConfig::for_frame(FRAME.0, FRAME.1).with_reach(12),
        )
        .unwrap()
        .0
    }

    #[test]
    fn out_of_reach_click_walks_then_interacts() {
        let mut s = adventure_session();
        // Avatar starts at (0,0); the computer's centre is (28,22): far.
        let fb = s.handle(InputEvent::click(25, 20)).unwrap();
        assert_eq!(fb, vec![Feedback::AvatarMoved { x: 25, y: 20 }]);
        assert!(!s.state().flag("diagnosed"));
        // Now in reach: the same click examines.
        let fb = s.handle(InputEvent::click(25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(t) if t.contains("cooling fan"))));
        assert!(s.state().flag("diagnosed"));
    }

    #[test]
    fn reach_gates_drag_and_apply_too() {
        let mut s = adventure_session();
        // Walk near the door first, then use it.
        s.handle(InputEvent::click(44, 6)).unwrap(); // walk
        s.handle(InputEvent::click(44, 6)).unwrap(); // press
        assert_eq!(s.state().current_scenario, "market");
        // Fan at centre (15,14); avatar still at (44,6): drag walks first.
        let fb = s.handle(InputEvent::drag(12, 12, 60, 20)).unwrap();
        assert_eq!(fb, vec![Feedback::AvatarMoved { x: 12, y: 12 }]);
        assert!(!s.inventory().has("fan"));
        let fb = s.handle(InputEvent::drag(12, 12, 60, 20)).unwrap();
        assert!(fb.contains(&Feedback::ItemAdded("fan".into())));
        // Apply out of reach also walks.
        s.handle(InputEvent::click(44, 6)).unwrap(); // walk to door
        s.handle(InputEvent::click(44, 6)).unwrap(); // back to classroom
        s.handle(InputEvent::click(25, 20)).unwrap(); // walk to computer
        s.handle(InputEvent::click(25, 20)).unwrap(); // diagnose
        s.handle(InputEvent::click(2, 45)).unwrap(); // walk away
        let fb = s.handle(InputEvent::apply("fan", 25, 20)).unwrap();
        assert_eq!(fb, vec![Feedback::AvatarMoved { x: 25, y: 20 }]);
        let fb = s.handle(InputEvent::apply("fan", 25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::GameEnded(_))));
    }

    #[test]
    fn classic_mode_ignores_distance() {
        let mut s = GameSession::new(
            Arc::new(fix_the_computer()),
            SessionConfig::for_frame(FRAME.0, FRAME.1),
        )
        .unwrap()
        .0;
        let fb = s.handle(InputEvent::click(25, 20)).unwrap();
        assert!(fb.iter().any(|f| matches!(f, Feedback::Text(_))));
    }
}
