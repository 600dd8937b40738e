//! The scenario graph.
//!
//! Scenarios are nodes; edges are the `goto` actions wired into triggers
//! ("buttons and objects on the video frame can be triggered to change the
//! play sequence of a video", §2.1). The graph also owns the project's
//! NPCs and image assets, because both editors and the runtime resolve
//! them by name.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::OnceLock;

use vgbl_media::SegmentId;

use crate::asset::AssetStore;
use crate::compiled::{Compiled, Layer};
use crate::npc::Npc;
use crate::scenario::{Scenario, ScenarioId};
use crate::validate::Issue;
use crate::{Result, SceneError};

/// The complete interactive-video game content: scenarios, NPCs, assets.
///
/// # Examples
///
/// ```
/// use vgbl_media::SegmentId;
/// use vgbl_scene::{ObjectKind, Rect, SceneGraph};
/// use vgbl_script::{Action, EventKind, Trigger};
///
/// let mut g = SceneGraph::new();
/// let hall = g.add_scenario("hall", SegmentId(0)).unwrap();
/// g.add_scenario("lab", SegmentId(1)).unwrap();
///
/// // Mount a button in the hall that jumps to the lab.
/// let s = g.scenario_mut(hall).unwrap();
/// let door = s
///     .add_object("door", ObjectKind::Button { label: "Lab".into() }, Rect::new(2, 2, 10, 8))
///     .unwrap();
/// s.object_mut(door).unwrap().triggers.push(Trigger::unconditional(
///     EventKind::Click,
///     vec![Action::GoTo("lab".into())],
/// ));
///
/// assert_eq!(g.edges().len(), 1);
/// assert_eq!(g.reachable().unwrap().len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct SceneGraph {
    scenarios: Vec<Scenario>,
    start: Option<ScenarioId>,
    npcs: BTreeMap<String, Npc>,
    assets: AssetStore,
    /// What publishing fixes about this content, filled on first use and
    /// dropped by every `&mut` method (see [`crate::compiled`]).
    compiled: OnceLock<Compiled>,
}

impl PartialEq for SceneGraph {
    /// Compares content only: a compiled and an uncompiled copy are equal.
    fn eq(&self, other: &SceneGraph) -> bool {
        self.scenarios == other.scenarios
            && self.start == other.start
            && self.npcs == other.npcs
            && self.assets == other.assets
    }
}

impl std::fmt::Debug for SceneGraph {
    /// Prints content only, so whether the graph is compiled never shows.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SceneGraph")
            .field("scenarios", &self.scenarios)
            .field("start", &self.start)
            .field("npcs", &self.npcs)
            .field("assets", &self.assets)
            .finish()
    }
}

impl SceneGraph {
    /// An empty graph.
    pub fn new() -> SceneGraph {
        SceneGraph::default()
    }

    fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| Compiled::of(self))
    }

    /// The errors [`crate::validate::validate`] reports for this graph,
    /// in its order, worked out once. No error depends on the frame
    /// size, so these are the errors at every size.
    pub fn validation_errors(&self) -> &[Issue] {
        &self.compiled().errors
    }

    /// A stable hash of the game content (scenario names, in order, plus
    /// object names), worked out once. Save games carry it to detect
    /// loading into the wrong game.
    pub fn content_hash(&self) -> u64 {
        self.compiled().hash
    }

    /// The scenario's mounted objects pre-rendered as [`Layer`]s, bottom
    /// to top, worked out once; empty for an unknown id. Drawing each
    /// layer whose gate object is visible, in order, draws what drawing
    /// the visible objects one by one in [`Scenario::draw_order`] draws.
    pub fn overlay(&self, id: ScenarioId) -> &[Layer] {
        self.compiled().overlays.get(id.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Adds a scenario over `segment`, returning its id. The first
    /// scenario added becomes the start scenario until overridden.
    ///
    /// # Errors
    /// [`SceneError::DuplicateScenario`] when the name is taken.
    pub fn add_scenario(&mut self, name: impl Into<String>, segment: SegmentId) -> Result<ScenarioId> {
        self.compiled.take();
        let name = name.into();
        if self.scenarios.iter().any(|s| s.name == name) {
            return Err(SceneError::DuplicateScenario(name));
        }
        let id = ScenarioId(self.scenarios.len() as u32);
        self.scenarios.push(Scenario::new(id, name, segment));
        if self.start.is_none() {
            self.start = Some(id);
        }
        Ok(id)
    }

    /// All scenarios in id order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the graph has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Looks a scenario up by id.
    pub fn scenario(&self, id: ScenarioId) -> Option<&Scenario> {
        self.scenarios.get(id.0 as usize)
    }

    /// Mutable scenario access.
    pub fn scenario_mut(&mut self, id: ScenarioId) -> Option<&mut Scenario> {
        self.compiled.take();
        self.scenarios.get_mut(id.0 as usize)
    }

    /// Looks a scenario up by name.
    pub fn scenario_by_name(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Mutable lookup by name.
    pub fn scenario_by_name_mut(&mut self, name: &str) -> Option<&mut Scenario> {
        self.compiled.take();
        self.scenarios.iter_mut().find(|s| s.name == name)
    }

    /// Like [`SceneGraph::scenario_by_name`] with a typed error.
    pub fn require_scenario(&self, name: &str) -> Result<&Scenario> {
        self.scenario_by_name(name)
            .ok_or_else(|| SceneError::UnknownScenario(name.to_owned()))
    }

    /// The start scenario id.
    ///
    /// # Errors
    /// [`SceneError::EmptyGraph`] when no scenario exists.
    pub fn start(&self) -> Result<ScenarioId> {
        self.start.ok_or(SceneError::EmptyGraph)
    }

    /// Sets the start scenario by name.
    pub fn set_start(&mut self, name: &str) -> Result<()> {
        self.compiled.take();
        let id = self.require_scenario(name)?.id;
        self.start = Some(id);
        Ok(())
    }

    /// Registers an NPC (replacing any previous with the same name).
    pub fn add_npc(&mut self, npc: Npc) {
        self.compiled.take();
        self.npcs.insert(npc.name.clone(), npc);
    }

    /// Looks an NPC up by name.
    pub fn npc(&self, name: &str) -> Option<&Npc> {
        self.npcs.get(name)
    }

    /// All NPCs in name order.
    pub fn npcs(&self) -> impl Iterator<Item = &Npc> {
        self.npcs.values()
    }

    /// The shared asset registry.
    pub fn assets(&self) -> &AssetStore {
        &self.assets
    }

    /// Mutable asset registry access.
    pub fn assets_mut(&mut self) -> &mut AssetStore {
        self.compiled.take();
        &mut self.assets
    }

    /// Removes a scenario by name, renumbering the positional ids of the
    /// remaining scenarios. The start moves to the first remaining
    /// scenario when the removed one was the start. `goto` actions that
    /// targeted it become dangling (reported by validation).
    pub fn remove_scenario(&mut self, name: &str) -> Result<Scenario> {
        self.compiled.take();
        let idx = self
            .scenarios
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| SceneError::UnknownScenario(name.to_owned()))?;
        let was_start = self.start == Some(ScenarioId(idx as u32));
        let removed = self.scenarios.remove(idx);
        for (i, s) in self.scenarios.iter_mut().enumerate() {
            s.id = ScenarioId(i as u32);
        }
        if self.scenarios.is_empty() {
            self.start = None;
        } else if was_start {
            self.start = Some(ScenarioId(0));
        } else if let Some(ScenarioId(old)) = self.start {
            if old as usize > idx {
                self.start = Some(ScenarioId(old - 1));
            }
        }
        Ok(removed)
    }

    /// Renames a scenario and rewrites every `goto` action that targeted
    /// the old name, so transitions never silently dangle on rename.
    pub fn rename_scenario(&mut self, old: &str, new: &str) -> Result<()> {
        self.compiled.take();
        if self.scenarios.iter().any(|s| s.name == new) {
            return Err(SceneError::DuplicateScenario(new.to_owned()));
        }
        let idx = self
            .scenarios
            .iter()
            .position(|s| s.name == old)
            .ok_or_else(|| SceneError::UnknownScenario(old.to_owned()))?;
        self.scenarios[idx].name = new.to_owned();
        for s in &mut self.scenarios {
            let rewrite = |set: &mut vgbl_script::TriggerSet| {
                for t in set.triggers_mut() {
                    for a in &mut t.actions {
                        if let vgbl_script::Action::GoTo(target) = a {
                            if target == old {
                                *target = new.to_owned();
                            }
                        }
                    }
                }
            };
            rewrite(&mut s.entry_triggers);
            for o in s.objects_mut() {
                rewrite(&mut o.triggers);
            }
        }
        Ok(())
    }

    /// All transition edges `(from, to-name)` in the graph, including
    /// danglers (targets that are not scenario names).
    pub fn edges(&self) -> Vec<(ScenarioId, String)> {
        let mut out = Vec::new();
        for s in &self.scenarios {
            for target in s.goto_targets() {
                out.push((s.id, target.to_owned()));
            }
        }
        out
    }

    /// Scenario ids reachable from the start by following `goto` edges
    /// (BFS). Unknown targets are skipped (reported by validation).
    pub fn reachable(&self) -> Result<HashSet<ScenarioId>> {
        let start = self.start()?;
        let mut seen = HashSet::with_capacity(self.scenarios.len());
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(id) = queue.pop_front() {
            let scenario = self.scenario(id).expect("ids in queue are valid");
            for target in scenario.goto_targets() {
                if let Some(next) = self.scenario_by_name(target) {
                    if seen.insert(next.id) {
                        queue.push_back(next.id);
                    }
                }
            }
        }
        Ok(seen)
    }

    /// Renders the scenario graph in Graphviz DOT syntax — the map view a
    /// course designer pins next to the authoring tool. Nodes are
    /// scenarios (the start is double-circled, scenarios containing an
    /// `end` action are shaded); edges are `goto` transitions labelled
    /// with the object that carries them ("entry" for entry triggers).
    /// Deterministic output.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph vgbl {\n  rankdir=LR;\n  node [shape=box];\n");
        let start = self.start.map(|s| s.0);
        for s in &self.scenarios {
            let mut attrs = vec![format!("label=\"{}\"", s.name.replace('"', "\\\""))];
            if start == Some(s.id.0) {
                attrs.push("peripheries=2".to_owned());
            }
            if s.has_end() {
                attrs.push("style=filled".to_owned());
                attrs.push("fillcolor=lightgrey".to_owned());
            }
            out.push_str(&format!("  s{} [{}];\n", s.id.0, attrs.join(", ")));
        }
        for s in &self.scenarios {
            let mut emit = |carrier: &str, set: &vgbl_script::TriggerSet| {
                for t in set.triggers() {
                    for a in &t.actions {
                        if let vgbl_script::Action::GoTo(target) = a {
                            match self.scenario_by_name(target) {
                                Some(to) => out.push_str(&format!(
                                    "  s{} -> s{} [label=\"{}\"];\n",
                                    s.id.0, to.id.0, carrier
                                )),
                                None => out.push_str(&format!(
                                    "  s{} -> missing_{} [label=\"{}\", color=red, style=dashed];\n",
                                    s.id.0,
                                    target.replace(|c: char| !c.is_ascii_alphanumeric(), "_"),
                                    carrier
                                )),
                            }
                        }
                    }
                }
            };
            emit("entry", &s.entry_triggers);
            for o in s.objects() {
                emit(&o.name, &o.triggers);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Breadth-first shortest path (in transitions) from the start to the
    /// named scenario; `None` when unreachable. Used by the goal-seeking
    /// bot and by authoring diagnostics.
    pub fn shortest_path(&self, to: &str) -> Result<Option<Vec<ScenarioId>>> {
        let start = self.start()?;
        let goal = self.require_scenario(to)?.id;
        if start == goal {
            return Ok(Some(vec![start]));
        }
        let mut prev: BTreeMap<ScenarioId, ScenarioId> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(id) = queue.pop_front() {
            let scenario = self.scenario(id).expect("ids in queue are valid");
            for target in scenario.goto_targets() {
                if let Some(next) = self.scenario_by_name(target) {
                    if next.id != start && !prev.contains_key(&next.id) {
                        prev.insert(next.id, id);
                        if next.id == goal {
                            let mut path = vec![goal];
                            let mut cur = goal;
                            while cur != start {
                                cur = prev[&cur];
                                path.push(cur);
                            }
                            path.reverse();
                            return Ok(Some(path));
                        }
                        queue.push_back(next.id);
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::npc::DialogueTree;
    use crate::object::ObjectKind;
    use vgbl_script::{Action, EventKind, Trigger};

    /// classroom → market → classroom, plus unreachable `attic`.
    fn demo_graph() -> SceneGraph {
        let mut g = SceneGraph::new();
        let classroom = g.add_scenario("classroom", SegmentId(0)).unwrap();
        let market = g.add_scenario("market", SegmentId(1)).unwrap();
        g.add_scenario("attic", SegmentId(2)).unwrap();

        let c = g.scenario_mut(classroom).unwrap();
        let door = c
            .add_object("door", ObjectKind::Button { label: "To market".into() }, Rect::new(0, 0, 10, 10))
            .unwrap();
        c.object_mut(door).unwrap().triggers.push(Trigger::unconditional(
            EventKind::Click,
            vec![Action::GoTo("market".into())],
        ));

        let m = g.scenario_mut(market).unwrap();
        m.entry_triggers.push(Trigger::unconditional(
            EventKind::Enter,
            vec![Action::GoTo("classroom".into())],
        ));
        g
    }

    #[test]
    fn add_and_lookup() {
        let g = demo_graph();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.scenario_by_name("market").unwrap().id, ScenarioId(1));
        assert!(g.scenario_by_name("moon").is_none());
        assert!(g.require_scenario("moon").is_err());
        assert_eq!(g.scenario(ScenarioId(2)).unwrap().name, "attic");
        assert!(g.scenario(ScenarioId(9)).is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = demo_graph();
        assert!(matches!(
            g.add_scenario("market", SegmentId(5)),
            Err(SceneError::DuplicateScenario(_))
        ));
    }

    #[test]
    fn start_defaults_to_first_and_can_move() {
        let mut g = demo_graph();
        assert_eq!(g.start().unwrap(), ScenarioId(0));
        g.set_start("market").unwrap();
        assert_eq!(g.start().unwrap(), ScenarioId(1));
        assert!(g.set_start("moon").is_err());
        assert!(SceneGraph::new().start().is_err());
    }

    #[test]
    fn edges_extracted_from_triggers() {
        let g = demo_graph();
        let edges = g.edges();
        assert_eq!(
            edges,
            vec![
                (ScenarioId(0), "market".to_string()),
                (ScenarioId(1), "classroom".to_string()),
            ]
        );
    }

    #[test]
    fn reachability_excludes_orphans() {
        let g = demo_graph();
        let r = g.reachable().unwrap();
        assert!(r.contains(&ScenarioId(0)));
        assert!(r.contains(&ScenarioId(1)));
        assert!(!r.contains(&ScenarioId(2)));
    }

    #[test]
    fn shortest_path_finds_and_fails() {
        let g = demo_graph();
        assert_eq!(
            g.shortest_path("market").unwrap().unwrap(),
            vec![ScenarioId(0), ScenarioId(1)]
        );
        assert_eq!(g.shortest_path("classroom").unwrap().unwrap(), vec![ScenarioId(0)]);
        assert_eq!(g.shortest_path("attic").unwrap(), None);
        assert!(g.shortest_path("moon").is_err());
    }

    #[test]
    fn npcs_and_assets_roundtrip() {
        let mut g = demo_graph();
        g.add_npc(Npc::new("teacher", DialogueTree::single_line("Fix the PC.")));
        assert!(g.npc("teacher").is_some());
        assert!(g.npc("nobody").is_none());
        assert_eq!(g.npcs().count(), 1);
        g.assets_mut().insert(crate::asset::ImageAsset::placeholder("pc", 4, 4));
        assert!(g.assets().contains("pc"));
    }

    #[test]
    fn dangling_edges_are_skipped_by_reachability() {
        let mut g = SceneGraph::new();
        let a = g.add_scenario("a", SegmentId(0)).unwrap();
        g.scenario_mut(a).unwrap().entry_triggers.push(Trigger::unconditional(
            EventKind::Enter,
            vec![Action::GoTo("nowhere".into())],
        ));
        let r = g.reachable().unwrap();
        assert_eq!(r.len(), 1);
    }
}

#[cfg(test)]
mod edit_tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::object::ObjectKind;
    use vgbl_media::SegmentId;
    use vgbl_script::{Action, EventKind, Trigger};

    fn graph3() -> SceneGraph {
        let mut g = SceneGraph::new();
        g.add_scenario("a", SegmentId(0)).unwrap();
        g.add_scenario("b", SegmentId(1)).unwrap();
        g.add_scenario("c", SegmentId(2)).unwrap();
        // a → b via object trigger; c → b via entry trigger.
        let sa = g.scenario_by_name_mut("a").unwrap();
        let o = sa
            .add_object("go", ObjectKind::Button { label: "go".into() }, Rect::new(0, 0, 4, 4))
            .unwrap();
        sa.object_mut(o).unwrap().triggers.push(Trigger::unconditional(
            EventKind::Click,
            vec![Action::GoTo("b".into())],
        ));
        g.scenario_by_name_mut("c").unwrap().entry_triggers.push(Trigger::unconditional(
            EventKind::Enter,
            vec![Action::GoTo("b".into())],
        ));
        g
    }

    #[test]
    fn remove_renumbers_and_moves_start() {
        let mut g = graph3();
        g.set_start("b").unwrap();
        let removed = g.remove_scenario("a").unwrap();
        assert_eq!(removed.name, "a");
        assert_eq!(g.len(), 2);
        assert_eq!(g.scenario_by_name("b").unwrap().id, ScenarioId(0));
        assert_eq!(g.scenario_by_name("c").unwrap().id, ScenarioId(1));
        // Start followed its scenario through renumbering.
        assert_eq!(g.start().unwrap(), ScenarioId(0));
        assert!(g.remove_scenario("a").is_err());
    }

    #[test]
    fn removing_start_falls_back_to_first() {
        let mut g = graph3();
        g.remove_scenario("a").unwrap();
        assert_eq!(g.scenario(g.start().unwrap()).unwrap().name, "b");
    }

    #[test]
    fn removing_everything_empties_start() {
        let mut g = graph3();
        g.remove_scenario("a").unwrap();
        g.remove_scenario("b").unwrap();
        g.remove_scenario("c").unwrap();
        assert!(g.start().is_err());
        assert!(g.is_empty());
    }

    #[test]
    fn rename_rewrites_gotos_everywhere() {
        let mut g = graph3();
        g.rename_scenario("b", "library").unwrap();
        assert!(g.scenario_by_name("b").is_none());
        assert!(g.scenario_by_name("library").is_some());
        let targets: Vec<String> = g.edges().into_iter().map(|(_, t)| t).collect();
        assert_eq!(targets, vec!["library".to_string(), "library".to_string()]);
        // Validation stays clean w.r.t. transitions.
        let report = crate::validate::validate(&g, None);
        assert!(!report.issues.iter().any(|i| matches!(i, crate::Issue::DanglingGoto { .. })));
    }

    #[test]
    fn rename_rejects_duplicates_and_unknowns() {
        let mut g = graph3();
        assert!(matches!(
            g.rename_scenario("a", "b"),
            Err(SceneError::DuplicateScenario(_))
        ));
        assert!(matches!(
            g.rename_scenario("zz", "yy"),
            Err(SceneError::UnknownScenario(_))
        ));
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::object::ObjectKind;
    use vgbl_media::SegmentId;
    use vgbl_script::{Action, EventKind, Trigger};

    #[test]
    fn dot_contains_nodes_edges_and_marks() {
        let mut g = SceneGraph::new();
        let a = g.add_scenario("start room", SegmentId(0)).unwrap();
        let b = g.add_scenario("finale", SegmentId(1)).unwrap();
        let sa = g.scenario_mut(a).unwrap();
        let btn = sa
            .add_object("door", ObjectKind::Button { label: "go".into() }, Rect::new(0, 0, 4, 4))
            .unwrap();
        sa.object_mut(btn).unwrap().triggers.push(Trigger::unconditional(
            EventKind::Click,
            vec![Action::GoTo("finale".into())],
        ));
        g.scenario_mut(b).unwrap().entry_triggers.push(Trigger::unconditional(
            EventKind::Enter,
            vec![Action::End("done".into())],
        ));
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph vgbl {"));
        assert!(dot.contains("label=\"start room\""));
        assert!(dot.contains("peripheries=2")); // start marker
        assert!(dot.contains("fillcolor=lightgrey")); // end marker
        assert!(dot.contains("s0 -> s1 [label=\"door\"]"));
        assert!(dot.ends_with("}\n"));
        // Deterministic.
        assert_eq!(dot, g.to_dot());
    }

    #[test]
    fn dot_flags_dangling_targets() {
        let mut g = SceneGraph::new();
        let a = g.add_scenario("a", SegmentId(0)).unwrap();
        g.scenario_mut(a).unwrap().entry_triggers.push(Trigger::unconditional(
            EventKind::Enter,
            vec![Action::GoTo("no where".into())],
        ));
        let dot = g.to_dot();
        assert!(dot.contains("missing_no_where"));
        assert!(dot.contains("color=red"));
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use crate::asset::ImageAsset;
    use crate::geometry::Rect;
    use crate::npc::DialogueTree;
    use crate::object::ObjectKind;

    fn graph() -> SceneGraph {
        let mut g = SceneGraph::new();
        g.assets_mut().insert(ImageAsset::placeholder("lamp", 6, 6));
        g.add_npc(Npc::new("guide", DialogueTree::single_line("Hi.")));
        let a = g.add_scenario("a", SegmentId(0)).unwrap();
        g.add_scenario("b", SegmentId(1)).unwrap();
        let s = g.scenario_mut(a).unwrap();
        s.add_object("lamp", ObjectKind::Image { asset: "lamp".into() }, Rect::new(1, 1, 6, 6))
            .unwrap();
        s.add_object("go", ObjectKind::Button { label: "Go".into() }, Rect::new(8, 1, 5, 4))
            .unwrap();
        g
    }

    #[test]
    fn every_mut_method_drops_the_memo() {
        type Edit = fn(&mut SceneGraph);
        let edits: [(&str, Edit); 8] = [
            ("add_scenario", |g| {
                let _ = g.add_scenario("c", SegmentId(2));
            }),
            ("scenario_mut", |g| {
                let _ = g.scenario_mut(ScenarioId(0));
            }),
            ("scenario_by_name_mut", |g| {
                let _ = g.scenario_by_name_mut("b");
            }),
            ("set_start", |g| {
                let _ = g.set_start("b");
            }),
            ("add_npc", |g| g.add_npc(Npc::new("owl", DialogueTree::single_line("Hoo.")))),
            ("assets_mut", |g| {
                let _ = g.assets_mut();
            }),
            ("remove_scenario", |g| {
                let _ = g.remove_scenario("b");
            }),
            ("rename_scenario", |g| {
                let _ = g.rename_scenario("b", "c");
            }),
        ];
        for (name, edit) in edits {
            let mut g = graph();
            g.content_hash();
            assert!(g.compiled.get().is_some());
            edit(&mut g);
            assert!(g.compiled.get().is_none(), "`{name}` kept a stale memo");
        }
    }

    #[test]
    fn clones_carry_the_memo_and_equality_ignores_it() {
        let compiled = graph();
        let hash = compiled.content_hash();
        let copy = compiled.clone();
        assert!(copy.compiled.get().is_some());
        assert_eq!(copy.content_hash(), hash);
        let plain = graph();
        assert!(plain.compiled.get().is_none());
        assert_eq!(compiled, plain);
        let mut other = graph();
        other.set_start("b").unwrap();
        assert_ne!(compiled, other);
    }

    #[test]
    fn debug_prints_what_the_derive_printed() {
        mod derived {
            use super::super::*;

            #[derive(Debug)]
            #[allow(dead_code)]
            pub(super) struct SceneGraph<'a> {
                pub(super) scenarios: &'a [Scenario],
                pub(super) start: Option<ScenarioId>,
                pub(super) npcs: &'a BTreeMap<String, Npc>,
                pub(super) assets: &'a AssetStore,
            }
        }
        let g = graph();
        g.content_hash();
        let d = derived::SceneGraph {
            scenarios: &g.scenarios,
            start: g.start,
            npcs: &g.npcs,
            assets: &g.assets,
        };
        assert_eq!(format!("{g:?}"), format!("{d:?}"));
        assert_eq!(format!("{g:#?}"), format!("{d:#?}"));
    }
}
