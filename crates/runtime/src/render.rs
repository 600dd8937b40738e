//! Rendering — the reproduction of the paper's Figure 2.
//!
//! Figure 2 shows "the interface of interactive VGBL runtime environment":
//! a video frame with an image object (an umbrella on a white background)
//! mounted on it, an inventory window listing collected items, and buttons
//! that switch video segments. Without a GUI toolkit (see `DESIGN.md`),
//! this module reproduces the same information two ways:
//!
//! * [`compose_frame`] — pixel-true compositing of the mounted objects
//!   onto the decoded video frame (colour-keyed, z-ordered), exactly what
//!   a GUI front-end would blit;
//! * [`ascii_ui`] — a deterministic text rendering of the full player
//!   window (video area with object markers, backpack pane, button row,
//!   feedback line) that tests assert on byte-for-byte.

use vgbl_media::color::Rgb;
use vgbl_media::Frame;
use vgbl_scene::{ObjectKind, Scenario};

use crate::engine::GameSession;
use crate::feedback::Feedback;
use crate::Result;

#[cfg(test)]
mod oracle;

/// Luma-to-character ramp, dark to bright.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Composites the current scenario's visible objects onto `base`
/// (a decoded video frame), bottom-to-top by z. Image and item objects
/// blit their assets (honouring colour keys); buttons draw as bordered
/// fills; NPC anchors draw their asset when one exists under the NPC's
/// name, else a marker frame; a button or marker of zero area draws
/// nothing. The avatar draws as a small cross.
///
/// The objects come pre-rendered from the graph's
/// [`SceneGraph::overlay`](vgbl_scene::SceneGraph::overlay): the frame is
/// copied once, each layer whose gate object is visible is copied on
/// run by run, and the avatar is drawn on top.
pub fn compose_frame(session: &GameSession, base: &Frame) -> Result<Frame> {
    let mut out = base.clone();
    let scenario = session.current_scenario();
    let env = crate::state::GameEnv {
        state: session.state(),
        inventory: session.inventory(),
    };
    for layer in session.graph().overlay(scenario.id) {
        if let Some(id) = layer.gate() {
            let object = scenario.object(id).expect("a gate is an object of its scenario");
            if !object.is_visible(&env)? {
                continue;
            }
        }
        layer.draw(&mut out);
    }
    // Avatar cross.
    let (ax, ay) = session.state().avatar;
    out.fill_rect(ax as i64 - 2, ay as i64, 5, 1, Rgb::new(255, 80, 80));
    out.fill_rect(ax as i64, ay as i64 - 2, 1, 5, Rgb::new(255, 80, 80));
    Ok(out)
}

/// Renders the video frame area as a luma character map of the given
/// character-grid size.
fn charmap(frame: &Frame, cols: usize, rows: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut line = String::with_capacity(cols);
        for c in 0..cols {
            let x = (c as u32 * frame.width()) / cols as u32;
            let y = (r as u32 * frame.height()) / rows as u32;
            let l = frame.get(x, y).map(|p| p.luma()).unwrap_or(0) as usize;
            line.push(RAMP[l * (RAMP.len() - 1) / 255] as char);
        }
        lines.push(line);
    }
    lines
}

/// Overlays single-character object markers (the object's initial,
/// uppercased) onto a charmap at the objects' centres.
fn mark_objects(
    lines: &mut [String],
    scenario: &Scenario,
    frame_size: (u32, u32),
    cols: usize,
    rows: usize,
) {
    for object in scenario.objects() {
        let centre = object.bounds.center();
        if centre.x < 0 || centre.y < 0 {
            continue;
        }
        let c = (centre.x as u32 * cols as u32 / frame_size.0.max(1)) as usize;
        let r = (centre.y as u32 * rows as u32 / frame_size.1.max(1)) as usize;
        if r < lines.len() && c < cols {
            let marker = object
                .name
                .chars()
                .next()
                .unwrap_or('?')
                .to_ascii_uppercase();
            let line = &mut lines[r];
            let mut chars: Vec<char> = line.chars().collect();
            chars[c] = marker;
            *line = chars.into_iter().collect();
        }
    }
}

/// Width of the text UI in characters.
const UI_COLS: usize = 64;
/// Character rows used for the video area.
const VIDEO_ROWS: usize = 14;
/// Character columns used for the video area (backpack pane gets the rest).
const VIDEO_COLS: usize = 46;

/// Renders the full runtime-environment window (Figure 2) as text:
/// title bar, status line, video area with object markers, backpack and
/// rewards pane, button row and the latest feedback lines.
///
/// Deterministic: same session state + same frame ⇒ same string.
pub fn ascii_ui(
    session: &GameSession,
    video_frame: Option<&Frame>,
    last_feedback: &[Feedback],
) -> String {
    let scenario = session.current_scenario();
    let (fw, fh) = session.config().frame_size;

    let fallback = Frame::filled(fw.max(1), fh.max(1), Rgb::new(24, 24, 24))
        .expect("frame size validated at session start");
    let frame = video_frame.unwrap_or(&fallback);
    let mut video = charmap(frame, VIDEO_COLS, VIDEO_ROWS);
    mark_objects(&mut video, scenario, (fw, fh), VIDEO_COLS, VIDEO_ROWS);

    // Right pane: backpack + rewards.
    let pane_w = UI_COLS - VIDEO_COLS - 3; // borders
    let mut pane: Vec<String> = Vec::with_capacity(VIDEO_ROWS);
    pane.push("BACKPACK".to_owned());
    for (item, count) in session.inventory().items() {
        if count > 1 {
            pane.push(format!("{item} x{count}"));
        } else {
            pane.push(item.to_owned());
        }
    }
    pane.push("-".repeat(pane_w));
    pane.push("REWARDS".to_owned());
    for r in session.inventory().rewards() {
        pane.push(r.clone());
    }
    pane.truncate(VIDEO_ROWS);
    while pane.len() < VIDEO_ROWS {
        pane.push(String::new());
    }

    let mut out = String::with_capacity((UI_COLS + 1) * (VIDEO_ROWS + 8));
    let title = " VGBL Runtime Environment ";
    out.push('+');
    out.push_str(&format!("{title:=^width$}", width = UI_COLS - 2));
    out.push_str("+\n");

    let status = format!(
        " scenario: {:<12} score: {:<6} time: {:>6}ms ",
        scenario.name,
        session.state().score,
        session.state().total_clock_ms
    );
    out.push_str(&format!("|{status:<width$}|\n", width = UI_COLS - 2));

    out.push('+');
    out.push_str(&"-".repeat(VIDEO_COLS));
    out.push('+');
    out.push_str(&"-".repeat(UI_COLS - VIDEO_COLS - 3));
    out.push_str("+\n");

    for (v, p) in video.iter().zip(pane.iter()) {
        let mut pane_line: String = p.chars().take(pane_w).collect();
        while pane_line.len() < pane_w {
            pane_line.push(' ');
        }
        out.push('|');
        out.push_str(v);
        out.push('|');
        out.push_str(&pane_line);
        out.push_str("|\n");
    }

    out.push('+');
    out.push_str(&"-".repeat(VIDEO_COLS));
    out.push('+');
    out.push_str(&"-".repeat(UI_COLS - VIDEO_COLS - 3));
    out.push_str("+\n");

    // Button row.
    let mut buttons = String::from(" ");
    for o in scenario.objects() {
        if let ObjectKind::Button { label } = &o.kind {
            buttons.push_str(&format!("[{label}] "));
        }
    }
    let buttons: String = buttons.chars().take(UI_COLS - 2).collect();
    out.push_str(&format!("|{buttons:<width$}|\n", width = UI_COLS - 2));

    // Feedback lines (latest up to 2).
    for fb in last_feedback.iter().rev().take(2).rev() {
        let line: String = format!(" {fb}").chars().take(UI_COLS - 2).collect();
        out.push_str(&format!("|{line:<width$}|\n", width = UI_COLS - 2));
    }

    out.push('+');
    out.push_str(&"=".repeat(UI_COLS - 2));
    out.push_str("+\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GameSession, SessionConfig};
    use crate::fixtures::{fix_the_computer, FRAME};
    use crate::input::InputEvent;
    use std::sync::Arc;

    fn session() -> GameSession {
        GameSession::new(
            Arc::new(fix_the_computer()),
            SessionConfig::for_frame(FRAME.0, FRAME.1),
        )
        .unwrap()
        .0
    }

    #[test]
    fn ascii_ui_contains_figure2_elements() {
        let mut s = session();
        s.handle(InputEvent::click(42, 4)).unwrap(); // to market
        let fb = s.handle(InputEvent::drag(12, 12, 60, 20)).unwrap(); // take fan
        let ui = ascii_ui(&s, None, &fb);
        assert!(ui.contains("VGBL Runtime Environment"));
        assert!(ui.contains("scenario: market"));
        assert!(ui.contains("BACKPACK"));
        assert!(ui.contains("fan"));
        assert!(ui.contains("REWARDS"));
        assert!(ui.contains("[Fan specs]"));
        assert!(ui.contains("[Back to class]"));
        assert!(ui.contains("[backpack] + fan"));
    }

    #[test]
    fn ascii_ui_is_deterministic_and_rectangular() {
        let s = session();
        let a = ascii_ui(&s, None, &[]);
        let b = ascii_ui(&s, None, &[]);
        assert_eq!(a, b);
        for line in a.lines() {
            assert_eq!(line.chars().count(), UI_COLS, "line: {line:?}");
        }
    }

    #[test]
    fn ascii_ui_marks_objects_in_video_area() {
        let s = session();
        let ui = ascii_ui(&s, None, &[]);
        // classroom objects: Teacher, Computer, door (to_market → 'T').
        assert!(ui.contains('C'), "computer marker missing:\n{ui}");
    }

    #[test]
    fn compose_blits_visible_objects_and_keys_transparency() {
        let s = session();
        let base = Frame::filled(FRAME.0, FRAME.1, Rgb::new(10, 10, 10)).unwrap();
        let out = compose_frame(&s, &base).unwrap();
        // The computer item sits at (20,16)+10x10 asset: its centre pixel
        // is painted, and the asset's white-keyed corner stays background.
        let centre = out.get(25, 21).unwrap();
        assert_ne!(centre, Rgb::new(10, 10, 10));
        let corner = out.get(20, 16).unwrap();
        assert_eq!(corner, Rgb::new(10, 10, 10), "colour key not honoured");
        // Button area painted.
        let btn = out.get(44, 6).unwrap();
        assert_ne!(btn, Rgb::new(10, 10, 10));
    }

    #[test]
    fn compose_skips_invisible_objects() {
        let mut s = session();
        s.handle(InputEvent::click(42, 4)).unwrap(); // market
        let base = Frame::filled(FRAME.0, FRAME.1, Rgb::BLACK).unwrap();
        let before = compose_frame(&s, &base).unwrap();
        // Fan visible at (10,10): painted.
        assert_ne!(before.get(14, 13).unwrap(), Rgb::BLACK);
        s.handle(InputEvent::drag(12, 12, 60, 20)).unwrap(); // take fan
        let after = compose_frame(&s, &base).unwrap();
        // Now invisible (visible_when !has("fan")).
        assert_eq!(after.get(14, 13).unwrap(), Rgb::BLACK);
    }

    #[test]
    fn compose_draws_nothing_for_empty_buttons_and_markers() {
        let mut g = vgbl_scene::SceneGraph::new();
        g.add_npc(vgbl_scene::Npc::new("guide", vgbl_scene::DialogueTree::single_line("Hi.")));
        let id = g.add_scenario("hall", vgbl_media::SegmentId(0)).unwrap();
        let hall = g.scenario_mut(id).unwrap();
        let flat = ObjectKind::Button { label: "flat".into() };
        hall.add_object("flat", flat, vgbl_scene::Rect::new(10, 10, 5, 0)).unwrap();
        let npc = ObjectKind::NpcAnchor { npc: "guide".into() };
        hall.add_object("thin", npc, vgbl_scene::Rect::new(30, 20, 0, 4)).unwrap();
        let (s, _) =
            GameSession::new(Arc::new(g), SessionConfig::for_frame(FRAME.0, FRAME.1)).unwrap();
        let base = Frame::filled(FRAME.0, FRAME.1, Rgb::BLACK).unwrap();
        let out = compose_frame(&s, &base).unwrap();
        for (x, y) in (10..15).flat_map(|x| [(x, 9), (x, 10)]) {
            assert_eq!(out.get(x, y), Some(Rgb::BLACK), "empty button painted ({x}, {y})");
        }
        for (x, y) in (20..24).flat_map(|y| [(29, y), (30, y)]) {
            assert_eq!(out.get(x, y), Some(Rgb::BLACK), "empty marker painted ({x}, {y})");
        }
    }

    #[test]
    fn compose_draws_avatar() {
        let mut s = session();
        s.handle(InputEvent::click(50, 40)).unwrap(); // walk (empty spot)
        let base = Frame::filled(FRAME.0, FRAME.1, Rgb::BLACK).unwrap();
        let out = compose_frame(&s, &base).unwrap();
        assert_eq!(out.get(50, 40), Some(Rgb::new(255, 80, 80)));
    }
}
