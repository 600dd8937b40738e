//! The `.vgp` project format.
//!
//! A line-oriented, versioned text format persisting everything the
//! authoring tool edits: project header, segment table, assets (full
//! pixels, hex-encoded), NPCs with dialogue trees, scenarios, objects and
//! triggers (in their textual script forms). The *encoded footage* is not
//! embedded — it lives in a sidecar `.vgv` container (see
//! [`vgbl_media::container`]) and is re-attached after load; everything
//! else round-trips exactly.
//!
//! Names (scenario, object, asset, NPC) must be single words — enforced
//! on save so the format stays unambiguous.

use vgbl_media::color::Rgb;
use vgbl_media::{Frame, FrameRate, SegmentTable};
use vgbl_scene::npc::DialogueChoice;
use vgbl_scene::{DialogueNode, DialogueTree, ImageAsset, Npc, ObjectKind, Rect, SceneGraph};
use vgbl_script::action::{split_args, Arg};
use vgbl_script::{Action, EventKind, Trigger};

use crate::error::AuthorError;
use crate::project::Project;
use crate::Result;

/// Format version written by this build.
pub const VGP_VERSION: u32 = 1;

fn check_name(kind: &str, name: &str) -> Result<()> {
    if name.is_empty()
        || name
            .chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '\\')
    {
        return Err(AuthorError::Command(format!(
            "{kind} name {name:?} must be a single word without quotes"
        )));
    }
    Ok(())
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// Serialises a project to `.vgp` text.
///
/// # Errors
/// Fails when any name is not a single word.
pub fn to_vgp(project: &Project) -> Result<String> {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!("vgp {VGP_VERSION}\n"));
    out.push_str(&format!("name {}\n", quote(&project.name)));
    out.push_str(&format!("frame {} {}\n", project.frame_size.0, project.frame_size.1));
    out.push_str(&format!("rate {} {}\n", project.rate.num(), project.rate.den()));

    out.push_str(&format!("segments {}", project.segments.frame_count()));
    for seg in project.segments.segments().iter().skip(1) {
        out.push_str(&format!(" {}", seg.start));
    }
    out.push('\n');

    for asset in project.graph.assets().iter() {
        check_name("asset", &asset.name)?;
        let key = match asset.color_key {
            Some(k) => format!("{:02x}{:02x}{:02x}", k.r, k.g, k.b),
            None => "-".to_owned(),
        };
        let mut hex = String::with_capacity(asset.image.raw().len() * 2);
        for b in asset.image.raw() {
            hex.push_str(&format!("{b:02x}"));
        }
        out.push_str(&format!(
            "asset {} {} {} {} {}\n",
            asset.name,
            asset.image.width(),
            asset.image.height(),
            key,
            hex
        ));
    }

    for npc in project.graph.npcs() {
        check_name("npc", &npc.name)?;
        out.push_str(&format!("npc {}\n", npc.name));
        for (id, node) in npc.dialogue.iter() {
            out.push_str(&format!("dlgnode {} {} {}\n", npc.name, id, quote(&node.line)));
            for choice in &node.choices {
                let next = choice
                    .next
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "end".to_owned());
                out.push_str(&format!(
                    "dlgchoice {} {} {} {}\n",
                    npc.name,
                    id,
                    quote(&choice.text),
                    next
                ));
            }
        }
    }

    for s in project.graph.scenarios() {
        check_name("scenario", &s.name)?;
        out.push_str(&format!("scenario {} {}\n", s.name, s.segment.0));
        if !s.description.is_empty() {
            out.push_str(&format!("desc {} {}\n", s.name, quote(&s.description)));
        }
        for t in s.entry_triggers.triggers() {
            write_trigger(&mut out, &s.name, "entry", t);
        }
        for o in s.objects() {
            check_name("object", &o.name)?;
            let (kind, extra) = match &o.kind {
                ObjectKind::Button { label } => ("button", quote(label)),
                ObjectKind::Image { asset } => ("image", asset.clone()),
                ObjectKind::Item { asset, description, takeable } => (
                    "item",
                    format!(
                        "{} {} {}",
                        asset,
                        if *takeable { "yes" } else { "no" },
                        quote(description)
                    ),
                ),
                ObjectKind::NpcAnchor { npc } => ("npcref", npc.clone()),
            };
            out.push_str(&format!(
                "object {} {} {} {} {} {} {} {} {}\n",
                s.name, o.name, kind, o.bounds.x, o.bounds.y, o.bounds.w, o.bounds.h, o.z, extra
            ));
            if let Some(cond) = &o.visible_when {
                out.push_str(&format!(
                    "visible {} {} {}\n",
                    s.name,
                    o.name,
                    quote(&cond.to_string())
                ));
            }
            for t in o.triggers.triggers() {
                write_trigger(&mut out, &s.name, &o.name, t);
            }
        }
    }

    if let Ok(start) = project.graph.start() {
        let name = &project
            .graph
            .scenario(start)
            .expect("start id valid")
            .name;
        out.push_str(&format!("start {name}\n"));
    }
    Ok(out)
}

fn write_trigger(out: &mut String, scenario: &str, target: &str, t: &Trigger) {
    let cond = match &t.condition {
        Some(c) => quote(&c.to_string()),
        None => "-".to_owned(),
    };
    out.push_str(&format!(
        "trigger {} {} {} {}",
        scenario,
        target,
        quote(&t.event.to_string()),
        cond
    ));
    for a in &t.actions {
        out.push_str(&format!(" {}", quote(&a.to_string())));
    }
    out.push('\n');
}

fn parse_err(line: usize, message: impl Into<String>) -> AuthorError {
    AuthorError::ProjectParse { line, message: message.into() }
}

fn word(args: &[Arg], i: usize, line: usize) -> Result<&str> {
    match args.get(i) {
        Some(Arg::Word(w)) => Ok(w),
        Some(Arg::Quoted(_)) => Err(parse_err(line, format!("field {i} must be a bare word"))),
        None => Err(parse_err(line, format!("missing field {i}"))),
    }
}

fn quoted(args: &[Arg], i: usize, line: usize) -> Result<&str> {
    match args.get(i) {
        Some(Arg::Quoted(s)) => Ok(s),
        Some(Arg::Word(_)) => Err(parse_err(line, format!("field {i} must be quoted"))),
        None => Err(parse_err(line, format!("missing field {i}"))),
    }
}

fn num<T: std::str::FromStr>(args: &[Arg], i: usize, line: usize) -> Result<T> {
    word(args, i, line)?
        .parse::<T>()
        .map_err(|_| parse_err(line, format!("field {i} is not a valid number")))
}

/// Parses `.vgp` text back into a [`Project`] (with `video: None`; attach
/// the sidecar footage afterwards).
pub fn from_vgp(text: &str) -> Result<Project> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty project"))?;
    let version: u32 = header
        .strip_prefix("vgp ")
        .ok_or_else(|| parse_err(1, "missing `vgp` header"))?
        .trim()
        .parse()
        .map_err(|_| parse_err(1, "bad version"))?;
    if version != VGP_VERSION {
        return Err(parse_err(1, format!("unsupported version {version}")));
    }

    let mut project = Project::new("", (1, 1), FrameRate::FPS30);
    let mut graph = SceneGraph::new();
    let mut start: Option<String> = None;
    let mut saw_segments = false;

    for (idx, raw) in lines {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let args = split_args(line).map_err(|e| parse_err(ln, e.to_string()))?;
        let verb = word(&args, 0, ln)?;
        match verb {
            "name" => project.name = quoted(&args, 1, ln)?.to_owned(),
            "frame" => {
                project.frame_size = (num(&args, 1, ln)?, num(&args, 2, ln)?);
            }
            "rate" => {
                let n: u32 = num(&args, 1, ln)?;
                let d: u32 = num(&args, 2, ln)?;
                project.rate =
                    FrameRate::new(n, d).ok_or_else(|| parse_err(ln, "zero frame rate"))?;
            }
            "segments" => {
                let frame_count: usize = num(&args, 1, ln)?;
                let mut cuts = Vec::with_capacity(args.len().saturating_sub(2));
                for i in 2..args.len() {
                    cuts.push(num(&args, i, ln)?);
                }
                project.segments = SegmentTable::from_cuts(frame_count, &cuts)
                    .map_err(|e| parse_err(ln, e.to_string()))?;
                saw_segments = true;
            }
            "asset" => {
                let name = word(&args, 1, ln)?.to_owned();
                let w: u32 = num(&args, 2, ln)?;
                let h: u32 = num(&args, 3, ln)?;
                let key_str = word(&args, 4, ln)?;
                let key = if key_str == "-" {
                    None
                } else {
                    if key_str.len() != 6 {
                        return Err(parse_err(ln, "colour key must be 6 hex digits"));
                    }
                    let v = u32::from_str_radix(key_str, 16)
                        .map_err(|_| parse_err(ln, "bad colour key"))?;
                    Some(Rgb::new((v >> 16) as u8, (v >> 8) as u8, v as u8))
                };
                let hex = word(&args, 5, ln)?;
                // Two hex digits per RGB byte, checked: hostile
                // dimensions must not overflow into a matching length.
                let expected = (w as usize)
                    .checked_mul(h as usize)
                    .and_then(|px| px.checked_mul(6));
                if expected != Some(hex.len()) {
                    return Err(parse_err(ln, "asset pixel data length mismatch"));
                }
                // Decoded byte by byte, so a multibyte character is just
                // a non-hex byte, never a split `str`.
                let nibble = |b: u8| char::from(b).to_digit(16);
                let mut data = Vec::with_capacity(hex.len() / 2);
                for pair in hex.as_bytes().chunks_exact(2) {
                    let (Some(hi), Some(lo)) = (nibble(pair[0]), nibble(pair[1])) else {
                        return Err(parse_err(ln, "bad hex in asset data"));
                    };
                    data.push((hi << 4 | lo) as u8);
                }
                let image =
                    Frame::from_raw(w, h, data).map_err(|e| parse_err(ln, e.to_string()))?;
                graph.assets_mut().insert(ImageAsset { name, image, color_key: key });
            }
            "npc" => {
                let name = word(&args, 1, ln)?.to_owned();
                graph.add_npc(Npc::new(name, DialogueTree::new()));
            }
            "dlgnode" => {
                let name = word(&args, 1, ln)?.to_owned();
                let id: u32 = num(&args, 2, ln)?;
                let line_text = quoted(&args, 3, ln)?.to_owned();
                let npc = graph
                    .npc(&name)
                    .cloned()
                    .ok_or_else(|| parse_err(ln, format!("dlgnode before npc `{name}`")))?;
                let mut dialogue = npc.dialogue;
                dialogue.insert(id, DialogueNode { line: line_text, choices: Vec::new() });
                graph.add_npc(Npc::new(name, dialogue));
            }
            "dlgchoice" => {
                let name = word(&args, 1, ln)?.to_owned();
                let id: u32 = num(&args, 2, ln)?;
                let text = quoted(&args, 3, ln)?.to_owned();
                let next_str = word(&args, 4, ln)?;
                let next = if next_str == "end" {
                    None
                } else {
                    Some(
                        next_str
                            .parse::<u32>()
                            .map_err(|_| parse_err(ln, "bad choice target"))?,
                    )
                };
                let npc = graph
                    .npc(&name)
                    .cloned()
                    .ok_or_else(|| parse_err(ln, format!("dlgchoice before npc `{name}`")))?;
                let mut dialogue = npc.dialogue;
                let mut node = dialogue
                    .get(id)
                    .cloned()
                    .ok_or_else(|| parse_err(ln, format!("dlgchoice before dlgnode {id}")))?;
                node.choices.push(DialogueChoice { text, next });
                dialogue.insert(id, node);
                graph.add_npc(Npc::new(name, dialogue));
            }
            "scenario" => {
                let name = word(&args, 1, ln)?.to_owned();
                let seg: u32 = num(&args, 2, ln)?;
                graph
                    .add_scenario(name, vgbl_media::SegmentId(seg))
                    .map_err(|e| parse_err(ln, e.to_string()))?;
            }
            "desc" => {
                let name = word(&args, 1, ln)?;
                let text = quoted(&args, 2, ln)?.to_owned();
                graph
                    .scenario_by_name_mut(name)
                    .ok_or_else(|| parse_err(ln, format!("desc before scenario `{name}`")))?
                    .description = text;
            }
            "object" => {
                let scenario = word(&args, 1, ln)?.to_owned();
                let obj_name = word(&args, 2, ln)?.to_owned();
                let kind_tag = word(&args, 3, ln)?.to_owned();
                let x: i32 = num(&args, 4, ln)?;
                let y: i32 = num(&args, 5, ln)?;
                let w: u32 = num(&args, 6, ln)?;
                let h: u32 = num(&args, 7, ln)?;
                let z: i32 = num(&args, 8, ln)?;
                let kind = match kind_tag.as_str() {
                    "button" => ObjectKind::Button { label: quoted(&args, 9, ln)?.to_owned() },
                    "image" => ObjectKind::Image { asset: word(&args, 9, ln)?.to_owned() },
                    "item" => ObjectKind::Item {
                        asset: word(&args, 9, ln)?.to_owned(),
                        takeable: match word(&args, 10, ln)? {
                            "yes" => true,
                            "no" => false,
                            other => {
                                return Err(parse_err(
                                    ln,
                                    format!("takeable must be yes/no, got {other}"),
                                ))
                            }
                        },
                        description: quoted(&args, 11, ln)?.to_owned(),
                    },
                    "npcref" => ObjectKind::NpcAnchor { npc: word(&args, 9, ln)?.to_owned() },
                    other => return Err(parse_err(ln, format!("unknown object kind `{other}`"))),
                };
                let s = graph
                    .scenario_by_name_mut(&scenario)
                    .ok_or_else(|| parse_err(ln, format!("object before scenario `{scenario}`")))?;
                let id = s
                    .add_object(obj_name, kind, Rect::new(x, y, w, h))
                    .map_err(|e| parse_err(ln, e.to_string()))?;
                s.object_mut(id).expect("just added").z = z;
            }
            "visible" => {
                let scenario = word(&args, 1, ln)?;
                let object = word(&args, 2, ln)?;
                let cond = quoted(&args, 3, ln)?;
                let expr =
                    vgbl_script::parse_expr(cond).map_err(|e| parse_err(ln, e.to_string()))?;
                graph
                    .scenario_by_name_mut(scenario)
                    .and_then(|s| s.object_by_name_mut(object))
                    .ok_or_else(|| parse_err(ln, "visible on unknown object"))?
                    .visible_when = Some(expr);
            }
            "trigger" => {
                let scenario = word(&args, 1, ln)?;
                let target = word(&args, 2, ln)?.to_owned();
                let event = EventKind::parse(quoted(&args, 3, ln)?)
                    .map_err(|e| parse_err(ln, e.to_string()))?;
                let cond = match args.get(4) {
                    Some(Arg::Word(w)) if w == "-" => None,
                    Some(Arg::Quoted(src)) => Some(
                        vgbl_script::parse_expr(src).map_err(|e| parse_err(ln, e.to_string()))?,
                    ),
                    _ => return Err(parse_err(ln, "condition must be quoted or `-`")),
                };
                let mut actions = Vec::with_capacity(args.len() - 5);
                for i in 5..args.len() {
                    let src = quoted(&args, i, ln)?;
                    actions
                        .push(Action::parse(src).map_err(|e| parse_err(ln, e.to_string()))?);
                }
                let trigger = Trigger { event, condition: cond, actions };
                let s = graph
                    .scenario_by_name_mut(scenario)
                    .ok_or_else(|| parse_err(ln, format!("trigger before scenario `{scenario}`")))?;
                if target == "entry" {
                    s.entry_triggers.push(trigger);
                } else {
                    s.object_by_name_mut(&target)
                        .ok_or_else(|| parse_err(ln, format!("trigger on unknown object `{target}`")))?
                        .triggers
                        .push(trigger);
                }
            }
            "start" => start = Some(word(&args, 1, ln)?.to_owned()),
            other => return Err(parse_err(ln, format!("unknown directive `{other}`"))),
        }
    }

    if !saw_segments {
        return Err(parse_err(1, "missing `segments` directive"));
    }
    if let Some(name) = start {
        graph
            .set_start(&name)
            .map_err(|e| AuthorError::ProjectParse { line: 0, message: e.to_string() })?;
    }
    project.graph = graph;
    project
        .check_integrity()
        .map_err(|e| AuthorError::ProjectParse { line: 0, message: e.to_string() })?;
    Ok(project)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wizard;

    #[test]
    fn roundtrip_wizard_quiz() {
        let project = wizard::quiz_template("physics_quiz", 3);
        let text = to_vgp(&project).unwrap();
        let back = from_vgp(&text).unwrap();
        assert_eq!(back.name, project.name);
        assert_eq!(back.frame_size, project.frame_size);
        assert_eq!(back.rate, project.rate);
        assert_eq!(back.segments, project.segments);
        assert_eq!(back.graph, project.graph);
    }

    #[test]
    fn roundtrip_wizard_tour() {
        let project = wizard::tour_template("museum", 4);
        let text = to_vgp(&project).unwrap();
        let back = from_vgp(&text).unwrap();
        assert_eq!(back.graph, project.graph);
        assert_eq!(back.segments, project.segments);
    }

    #[test]
    fn start_scenario_survives() {
        let mut project = wizard::tour_template("museum", 3);
        project.graph.set_start("room2").unwrap();
        let back = from_vgp(&to_vgp(&project).unwrap()).unwrap();
        let start = back.graph.start().unwrap();
        assert_eq!(back.graph.scenario(start).unwrap().name, "room2");
    }

    #[test]
    fn rejects_malformed_projects() {
        for (bad, why) in [
            ("", "empty"),
            ("vgp 99\n", "version"),
            ("vgp 1\nwarp 5\n", "unknown directive"),
            ("vgp 1\nname \"x\"\n", "missing segments"),
            ("vgp 1\nsegments 10\nscenario a 0\nscenario a 0\n", "dup scenario"),
            ("vgp 1\nsegments 10\nobject a b button 0 0 1 1 0 \"L\"\n", "object before scenario"),
            ("vgp 1\nsegments 10\nscenario a 9\n", "segment out of range"),
            (
                "vgp 1\nsegments 10\nscenario a 0\ntrigger a entry \"hover\" -\n",
                "bad event",
            ),
            (
                "vgp 1\nsegments 10\nscenario a 0\ntrigger a entry \"click\" \"((\"\n",
                "bad condition",
            ),
            ("vgp 1\nsegments 10\nasset a 2 2 - abcd\n", "short pixel data"),
            ("vgp 1\nsegments 10\nasset a 2 2 ggg abc\n", "bad key"),
            ("vgp 1\nsegments 10\ndlgnode ghost 0 \"hi\"\n", "dlgnode before npc"),
            ("vgp 1\nsegments 10\nstart nowhere\n", "unknown start"),
        ] {
            assert!(from_vgp(bad).is_err(), "accepted ({why}): {bad:?}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "vgp 1\n\n# a comment\nname \"x\"\nsegments 5\n";
        let p = from_vgp(text).unwrap();
        assert_eq!(p.name, "x");
        assert_eq!(p.segments.frame_count(), 5);
    }

    #[test]
    fn quoting_escapes_roundtrip() {
        let mut project = wizard::tour_template("t", 2);
        project.name = "He said \"go\"\nthen\tleft \\ done".into();
        project.graph.scenario_by_name_mut("room1").unwrap().description =
            "Multi\nline \"desc\"".into();
        let back = from_vgp(&to_vgp(&project).unwrap()).unwrap();
        assert_eq!(back.name, project.name);
        assert_eq!(
            back.graph.scenario_by_name("room1").unwrap().description,
            project.graph.scenario_by_name("room1").unwrap().description
        );
    }

    #[test]
    fn names_with_spaces_rejected_on_save() {
        let mut project = crate::project::Project::new(
            "t",
            (64, 48),
            vgbl_media::FrameRate::FPS30,
        );
        project
            .graph
            .add_scenario("room one", vgbl_media::SegmentId(0))
            .unwrap();
        assert!(to_vgp(&project).is_err());
    }
}
