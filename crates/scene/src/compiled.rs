//! What publishing fixes about a graph, worked out once per graph.
//!
//! The paper's editors publish a game once and its gaming platform then
//! plays it for every learner (§4.3). Three facts about a published graph
//! never change while it is played:
//!
//! * the errors [`validate`] reports — none depends on the frame size
//!   (the one frame-dependent finding, [`Issue::OutOfFrame`], is a
//!   warning), so sessions of any frame size share them;
//! * the content hash a save game is stamped with;
//! * each scenario's overlay: its mounted objects in draw order, painted
//!   once into [`Layer`]s of pixel runs in frame coordinates.
//!
//! [`SceneGraph`] keeps them in a private `OnceLock`, filled on first
//! use and dropped by every `&mut` method, so an edited graph is
//! compiled afresh.
//!
//! A layer is painted with [`Frame::blit_keyed`], [`Frame::blit`] and
//! [`Frame::fill_rect`], exactly as a compositor drawing object by object
//! would, once onto a black canvas and once onto a white one. A pixel
//! belongs to the layer when both canvases agree on it: some object wrote
//! it, and it holds the colour the last such object wrote. Copying the
//! layer's runs onto any frame therefore gives the pixels drawing its
//! objects there would give.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use vgbl_media::color::Rgb;
use vgbl_media::frame::MAX_DIM;
use vgbl_media::Frame;

use crate::asset::{AssetStore, ImageAsset};
use crate::geometry::Rect;
use crate::graph::SceneGraph;
use crate::object::{InteractiveObject, ObjectId, ObjectKind};
use crate::scenario::Scenario;
use crate::validate::{validate, Issue};

/// Fill colour of a button face.
const BUTTON_FACE: Rgb = Rgb::new(60, 60, 90);
/// Frame colour of an NPC anchor that has no asset of its own.
const MARKER: Rgb = Rgb::new(230, 200, 80);

/// The facts a [`SceneGraph`] memoises.
#[derive(Debug, Clone)]
pub(crate) struct Compiled {
    /// The errors of [`validate`], in its order.
    pub(crate) errors: Vec<Issue>,
    /// [`content_hash`] of the graph.
    pub(crate) hash: u64,
    /// Each scenario's layers, indexed by scenario id.
    pub(crate) overlays: Vec<Vec<Layer>>,
}

impl Compiled {
    /// Works every fact out from `graph`.
    pub(crate) fn of(graph: &SceneGraph) -> Compiled {
        Compiled {
            errors: validate(graph, None).errors().cloned().collect(),
            hash: content_hash(graph),
            overlays: graph.scenarios().iter().map(|s| layers(s, graph.assets())).collect(),
        }
    }
}

/// A stable hash of the game content (scenario names, in order, plus
/// object names): SipHash with fixed keys.
fn content_hash(graph: &SceneGraph) -> u64 {
    let mut h = DefaultHasher::new();
    for s in graph.scenarios() {
        s.name.hash(&mut h);
        for o in s.objects() {
            o.name.hash(&mut h);
        }
    }
    h.finish()
}

/// How an object draws.
enum Look<'a> {
    /// Its image asset, honouring the asset's colour key.
    Sprite(&'a ImageAsset),
    /// A filled face with a 1px white border over its bounds.
    Button,
    /// A 1px frame over its bounds.
    Marker,
}

impl<'a> Look<'a> {
    /// Image and item objects draw their asset; NPC anchors the asset
    /// under the NPC's name, else a marker; buttons their face. An
    /// object with a missing asset, and a button or marker of zero area,
    /// draws nothing.
    fn of(object: &InteractiveObject, assets: &'a AssetStore) -> Option<Look<'a>> {
        let empty = object.bounds.is_empty();
        match &object.kind {
            ObjectKind::Image { asset } | ObjectKind::Item { asset, .. } => {
                assets.get(asset).map(Look::Sprite)
            }
            ObjectKind::NpcAnchor { npc } => match assets.get(npc) {
                Some(a) => Some(Look::Sprite(a)),
                None => (!empty).then_some(Look::Marker),
            },
            ObjectKind::Button { .. } => (!empty).then_some(Look::Button),
        }
    }

    /// The pixels it may write, as `[x0, x1) × [y0, y1)` in frame
    /// coordinates: a sprite its asset's size at the bounds' corner
    /// (which may be larger than the bounds), else the bounds.
    fn footprint(&self, b: Rect) -> (i64, i64, i64, i64) {
        let (x, y) = (b.x as i64, b.y as i64);
        match self {
            Look::Sprite(a) => (x, y, x + a.image.width() as i64, y + a.image.height() as i64),
            Look::Button | Look::Marker => (x, y, b.right(), b.bottom()),
        }
    }

    /// Draws it onto `canvas`, whose top-left pixel is frame pixel
    /// `origin`.
    fn paint(&self, b: Rect, canvas: &mut Frame, origin: (i64, i64)) {
        let (x, y) = (b.x as i64 - origin.0, b.y as i64 - origin.1);
        let (right, bottom) = (x + b.w as i64, y + b.h as i64);
        let edges = |canvas: &mut Frame, c: Rgb| {
            canvas.fill_rect(x, y, b.w, 1, c);
            canvas.fill_rect(x, bottom - 1, b.w, 1, c);
            canvas.fill_rect(x, y, 1, b.h, c);
            canvas.fill_rect(right - 1, y, 1, b.h, c);
        };
        match self {
            Look::Sprite(a) => match a.color_key {
                Some(key) => canvas.blit_keyed(&a.image, x, y, key),
                None => canvas.blit(&a.image, x, y),
            },
            Look::Button => {
                canvas.fill_rect(x, y, b.w, b.h, BUTTON_FACE);
                edges(canvas, Rgb::WHITE);
            }
            Look::Marker => edges(canvas, MARKER),
        }
    }
}

/// A scenario's objects in draw order, folded into layers: objects with
/// no `visible_when` that follow each other share one layer, and each
/// conditional object is a layer of its own.
fn layers(scenario: &Scenario, assets: &AssetStore) -> Vec<Layer> {
    let mut out = Vec::new();
    let mut always: Vec<&InteractiveObject> = Vec::new();
    for object in scenario.draw_order() {
        if object.visible_when.is_none() {
            always.push(object);
            continue;
        }
        if !always.is_empty() {
            out.push(Layer::paint(None, &always, assets));
            always.clear();
        }
        out.push(Layer::paint(Some(object.id), &[object], assets));
    }
    if !always.is_empty() {
        out.push(Layer::paint(None, &always, assets));
    }
    out
}

/// One row segment of a layer's pixels.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Frame row.
    y: u32,
    /// Frame column of the first pixel.
    x: u32,
    /// Pixels in the run.
    len: u32,
    /// Offset of the run's RGB bytes in [`Layer::bytes`].
    at: usize,
}

/// Objects of one scenario drawn together, pre-rendered as pixel runs
/// in frame coordinates.
///
/// A layer holds only pixels inside `[0, MAX_DIM)²`, the largest frame
/// there is. An object whose bounds reach far past the frames it is
/// composed onto still holds its clipped area, once per graph.
#[derive(Debug, Clone)]
pub struct Layer {
    gate: Option<ObjectId>,
    runs: Vec<Run>,
    bytes: Vec<u8>,
}

impl Layer {
    /// Paints `objects`, in order, onto a black and a white canvas over
    /// their joint footprint and keeps the pixels the two agree on.
    fn paint(gate: Option<ObjectId>, objects: &[&InteractiveObject], assets: &AssetStore) -> Layer {
        let mut layer = Layer { gate, runs: Vec::new(), bytes: Vec::new() };
        let looks: Vec<(Look<'_>, Rect)> = objects
            .iter()
            .filter_map(|o| Look::of(o, assets).map(|look| (look, o.bounds)))
            .collect();
        let max = MAX_DIM as i64;
        let (mut x0, mut y0, mut x1, mut y1) = (max, max, 0, 0);
        for (look, b) in &looks {
            let (fx0, fy0, fx1, fy1) = look.footprint(*b);
            let (fx0, fy0, fx1, fy1) =
                (fx0.clamp(0, max), fy0.clamp(0, max), fx1.clamp(0, max), fy1.clamp(0, max));
            if fx0 < fx1 && fy0 < fy1 {
                (x0, y0, x1, y1) = (x0.min(fx0), y0.min(fy0), x1.max(fx1), y1.max(fy1));
            }
        }
        if x0 >= x1 || y0 >= y1 {
            return layer;
        }
        let (w, h) = ((x1 - x0) as u32, (y1 - y0) as u32);
        let canvas = |c: Rgb| {
            let mut canvas = Frame::filled(w, h, c).expect("footprint is within MAX_DIM");
            for (look, b) in &looks {
                look.paint(*b, &mut canvas, (x0, y0));
            }
            canvas
        };
        let (black, white) = (canvas(Rgb::BLACK), canvas(Rgb::WHITE));
        let row_bytes = w as usize * 3;
        for (row, (b, wt)) in black
            .raw()
            .chunks_exact(row_bytes)
            .zip(white.raw().chunks_exact(row_bytes))
            .enumerate()
        {
            let painted = |x: usize| b[x * 3..x * 3 + 3] == wt[x * 3..x * 3 + 3];
            let mut x = 0;
            while x < w as usize {
                if !painted(x) {
                    x += 1;
                    continue;
                }
                let start = x;
                while x < w as usize && painted(x) {
                    x += 1;
                }
                layer.runs.push(Run {
                    y: y0 as u32 + row as u32,
                    x: x0 as u32 + start as u32,
                    len: (x - start) as u32,
                    at: layer.bytes.len(),
                });
                layer.bytes.extend_from_slice(&b[start * 3..x * 3]);
            }
        }
        layer
    }

    /// The object whose `visible_when` decides whether the layer draws;
    /// `None` for a layer of objects that always draw.
    pub fn gate(&self) -> Option<ObjectId> {
        self.gate
    }

    /// Copies the layer onto `frame`: one `memcpy` per run, clipped at
    /// the frame's right and bottom edges.
    pub fn draw(&self, frame: &mut Frame) {
        let (w, h) = (frame.width(), frame.height());
        let data = frame.raw_mut();
        for r in &self.runs {
            if r.y >= h || r.x >= w {
                continue;
            }
            let n = r.len.min(w - r.x) as usize * 3;
            let d = (r.y as usize * w as usize + r.x as usize) * 3;
            data[d..d + n].copy_from_slice(&self.bytes[r.at..r.at + n]);
        }
    }
}
