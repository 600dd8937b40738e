//! # vgbl-scene — the scenario model
//!
//! The paper's content model (§2.1, §3): a game is a *graph of scenarios*,
//! each scenario presenting one video segment with *interactive objects*
//! mounted on the frame — buttons, images, collectable items and NPCs —
//! whose triggers change the play sequence, pop up feedback and fill the
//! player's backpack.
//!
//! * [`geometry`] — points and rectangles for object bounds/hit-testing.
//! * [`asset`] — small image assets mounted on video frames (Figure 2's
//!   umbrella) and the asset registry.
//! * [`object`] — interactive objects and their trigger sets.
//! * [`npc`] — non-player characters with fixed dialogue trees ("NPCs give
//!   fixed conversation to guide players", §3.1).
//! * [`scenario`] — one scenario: segment + objects + entry triggers.
//! * [`graph`] — the scenario graph with its implicit transition edges
//!   (extracted from `goto` actions).
//! * [`validate`] — static validation: dangling transitions, unreachable
//!   scenarios, unobtainable items, dead ends and more.
//! * [`compiled`] — what publishing fixes about a graph, worked out once
//!   per graph and kept on it: the validation errors, the content hash
//!   and each scenario's objects pre-rendered as layers of pixel runs,
//!   which the runtime copies onto every frame it composes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asset;
pub mod compiled;
pub mod geometry;
pub mod graph;
pub mod npc;
pub mod object;
pub mod scenario;
pub mod validate;

pub use asset::{AssetStore, ImageAsset};
pub use compiled::Layer;
pub use geometry::{Point, Rect};
pub use graph::SceneGraph;
pub use npc::{DialogueNode, DialogueTree, Npc};
pub use object::{InteractiveObject, ObjectId, ObjectKind};
pub use scenario::{Scenario, ScenarioId};
pub use validate::{Issue, Severity, ValidationReport};

/// Errors from scene-model construction and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SceneError {
    /// A scenario name was used twice.
    DuplicateScenario(String),
    /// An object name was used twice within a scenario.
    DuplicateObject(String),
    /// Lookup of an unknown scenario.
    UnknownScenario(String),
    /// Lookup of an unknown object.
    UnknownObject(String),
    /// Lookup of an unknown asset.
    UnknownAsset(String),
    /// The graph has no scenarios.
    EmptyGraph,
    /// A dialogue node references a node id that does not exist.
    DanglingDialogue {
        /// The NPC whose tree is broken.
        npc: String,
        /// The missing node id.
        node: u32,
    },
}

impl std::fmt::Display for SceneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SceneError::DuplicateScenario(n) => write!(f, "duplicate scenario name `{n}`"),
            SceneError::DuplicateObject(n) => write!(f, "duplicate object name `{n}`"),
            SceneError::UnknownScenario(n) => write!(f, "unknown scenario `{n}`"),
            SceneError::UnknownObject(n) => write!(f, "unknown object `{n}`"),
            SceneError::UnknownAsset(n) => write!(f, "unknown asset `{n}`"),
            SceneError::EmptyGraph => write!(f, "scene graph has no scenarios"),
            SceneError::DanglingDialogue { npc, node } => {
                write!(f, "dialogue of NPC `{npc}` references missing node {node}")
            }
        }
    }
}

impl std::error::Error for SceneError {}

/// Result alias for scene operations.
pub type Result<T> = std::result::Result<T, SceneError>;
