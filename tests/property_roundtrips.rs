//! Cross-crate property tests: every persistence boundary and codec path
//! must round-trip for *arbitrary* inputs, not just the fixtures.

use proptest::prelude::*;

use vgbl::media::codec::{Decoder, EncodeConfig, Encoder, Quality};
use vgbl::media::color::Rgb;
use vgbl::media::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};
use vgbl::media::{ContainerReader, ContainerWriter, FrameRate, SegmentTable};
use vgbl::script::{parse_expr, Action, EventKind};

/// Strategy: small random footage specs (kept tiny so codec tests stay
/// fast in debug builds).
fn footage_spec() -> impl Strategy<Value = FootageSpec> {
    let shot = (
        1usize..8,                      // frames
        any::<u64>(),                   // background seed
        0u8..3,                         // noise
        -10i16..10,                     // drift
        proptest::option::of((1u32..6, any::<u64>(), -3.0f32..3.0, -3.0f32..3.0)),
    )
        .prop_map(|(frames, bg, noise, drift, sprite)| ShotSpec {
            frames,
            background: Rgb::from_seed(bg),
            sprites: sprite
                .map(|(r, seed, vx, vy)| {
                    vec![SpriteSpec {
                        shape: SpriteShape::Circle(r),
                        color: Rgb::from_seed(seed),
                        pos: (8.0, 8.0),
                        vel: (vx, vy),
                    }]
                })
                .unwrap_or_default(),
            luma_drift: drift,
            noise,
        });
    (proptest::collection::vec(shot, 1..4), any::<u64>()).prop_map(|(shots, seed)| FootageSpec {
        width: 24,
        height: 16,
        rate: FrameRate::FPS30,
        shots,
        noise_seed: seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lossless_codec_roundtrip(spec in footage_spec(), gop in 1usize..6) {
        let footage = spec.render().unwrap();
        let enc = Encoder::new(EncodeConfig {
            quality: Quality::Lossless,
            gop,
            search_range: 3,
            threads: 1,
        });
        let video = enc.encode(&footage.frames, footage.rate).unwrap();
        let decoded = Decoder::default().decode_all(&video).unwrap();
        prop_assert_eq!(&decoded.frames, &footage.frames);
    }

    #[test]
    fn lossy_codec_error_bounded(spec in footage_spec()) {
        let footage = spec.render().unwrap();
        for quality in [Quality::High, Quality::Medium, Quality::Low] {
            let enc = Encoder::new(EncodeConfig {
                quality,
                gop: 4,
                search_range: 3,
                threads: 1,
            });
            let video = enc.encode(&footage.frames, footage.rate).unwrap();
            let decoded = Decoder::default().decode_all(&video).unwrap();
            let bound = (quality.qstep() * quality.qstep()) as f64;
            for (a, b) in footage.frames.iter().zip(decoded.frames.iter()) {
                prop_assert!(a.mse(b).unwrap() <= bound);
            }
        }
    }

    #[test]
    fn container_roundtrip(spec in footage_spec()) {
        let footage = spec.render().unwrap();
        let video = Encoder::new(EncodeConfig { gop: 3, search_range: 2, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let bytes = ContainerWriter::write(&video);
        let back = ContainerReader::read(&bytes).unwrap();
        prop_assert_eq!(back, video);
    }

    #[test]
    fn container_never_panics_on_corruption(
        spec in footage_spec(),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
        payload_at in any::<prop::sample::Index>(),
    ) {
        let footage = spec.render().unwrap();
        let video = Encoder::new(EncodeConfig { gop: 3, search_range: 2, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let mut bytes = ContainerWriter::write(&video);
        let idx = flip_at.index(bytes.len());
        bytes[idx] ^= flip_bits;
        // Must return (Ok or Err), never panic. If it parses, decoding
        // must also not panic.
        if let Ok(parsed) = ContainerReader::read(&bytes) {
            let _ = Decoder::default().decode_all(&parsed);
        }

        // A flip after writing almost always fails the trailer checksum
        // first. Flipping a frame payload byte *before* writing reseals
        // the container, so the damaged entropy data reaches every
        // decode path, which must answer Ok or Err, never panic.
        let mut resealed = video;
        let mut at = payload_at.index(resealed.payload_bytes().max(1));
        for frame in &mut resealed.frames {
            if at < frame.data.len() {
                frame.data[at] ^= flip_bits;
                break;
            }
            at -= frame.data.len();
        }
        let parsed = ContainerReader::read(&ContainerWriter::write(&resealed)).unwrap();
        let decoder = Decoder::default();
        let _ = decoder.decode_all(&parsed);
        for k in parsed.keyframes() {
            let _ = decoder.decode_gop_at(&parsed, k);
        }
        for i in 0..parsed.len() {
            let _ = decoder.decode_frame(&parsed, i);
        }
    }

    #[test]
    fn segment_table_partitions(frame_count in 1usize..500, cuts in proptest::collection::btree_set(1usize..499, 0..12)) {
        let cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < frame_count).collect();
        let table = SegmentTable::from_cuts(frame_count, &cuts).unwrap();
        // Exact partition.
        let mut expect = 0usize;
        for seg in table.segments() {
            prop_assert_eq!(seg.start, expect);
            prop_assert!(seg.end > seg.start);
            expect = seg.end;
        }
        prop_assert_eq!(expect, frame_count);
        // Point lookup agrees with linear scan.
        for f in (0..frame_count).step_by((frame_count / 17).max(1)) {
            let found = table.segment_at(f).unwrap();
            prop_assert!(found.contains(f));
        }
    }
}

/// Strategies for script-language values.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword", |s| s != "true" && s != "false")
}

fn text() -> impl Strategy<Value = String> {
    // Includes quotes, backslashes, newlines and unicode.
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just(' '),
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\t'),
            Just('傘'),
            Just('%'),
        ],
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        ident().prop_map(Action::GoTo),
        text().prop_map(Action::ShowText),
        ident().prop_map(Action::ShowImage),
        text().prop_map(Action::OpenUrl),
        ident().prop_map(Action::GiveItem),
        ident().prop_map(Action::TakeItem),
        (ident(), any::<bool>()).prop_map(|(n, b)| Action::SetFlag(n, b)),
        any::<i64>().prop_map(Action::AddScore),
        ident().prop_map(Action::Award),
        (ident(), text()).prop_map(|(npc, line)| Action::Say { npc, line }),
        text().prop_map(Action::End),
    ]
}

fn event() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Click),
        Just(EventKind::Drag),
        ident().prop_map(EventKind::Use),
        proptest::char::range('!', '~').prop_map(EventKind::Key),
        Just(EventKind::Enter),
        any::<u64>().prop_map(EventKind::Timer),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn action_display_parse_roundtrip(a in action()) {
        let s = a.to_string();
        let back = Action::parse(&s).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn event_display_parse_roundtrip(e in event()) {
        let s = e.to_string();
        let back = EventKind::parse(&s).unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn parser_never_panics(src in "[ -~]{0,40}") {
        let _ = parse_expr(&src);
    }

    #[test]
    fn expr_display_reparses(
        a in ident(), b in ident(), n in -1000i64..1000, s in text()
    ) {
        // Build a few structured expressions and round-trip via Display.
        let sources = [
            format!("{a} + {n} * {b}"),
            format!("!({a} == {b}) && has(\"{}\")", s.replace(['\\', '"'], "")),
            format!("({a} - {n}) >= {b} || false"),
        ];
        for src in &sources {
            if let Ok(expr) = parse_expr(src) {
                let printed = expr.to_string();
                let back = parse_expr(&printed).unwrap();
                prop_assert_eq!(back, expr, "source {}", src);
            }
        }
    }
}

mod save_props {
    use super::*;
    use vgbl::runtime::{GameState, Inventory, SaveGame};

    fn game_state() -> impl Strategy<Value = GameState> {
        (
            ident(),
            any::<i64>(),
            proptest::collection::btree_map(ident(), any::<bool>(), 0..5),
            proptest::collection::btree_set(ident(), 0..5),
            proptest::collection::btree_set(ident(), 0..5),
            (any::<u32>(), any::<u32>()),
            (any::<i32>(), any::<i32>()),
            proptest::option::of(ident()),
        )
            .prop_map(
                |(scenario, score, flags, visited, examined, clocks, avatar, ended)| {
                    let mut s = GameState::new(scenario);
                    s.score = score;
                    s.flags = flags;
                    s.visited.extend(visited);
                    s.examined = examined;
                    s.scenario_clock_ms = clocks.0 as u64;
                    s.total_clock_ms = clocks.1 as u64;
                    s.avatar = avatar;
                    s.ended = ended;
                    s
                },
            )
    }

    fn inventory() -> impl Strategy<Value = Inventory> {
        (
            proptest::collection::btree_map(ident(), 1u32..4, 0..5),
            proptest::collection::vec(ident(), 0..4),
        )
            .prop_map(|(items, rewards)| {
                let mut inv = Inventory::new();
                for (item, n) in items {
                    for _ in 0..n {
                        inv.add(&item);
                    }
                }
                for r in rewards {
                    inv.award(r);
                }
                inv
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn save_game_roundtrip(
            state in game_state(),
            inv in inventory(),
            hash in any::<u64>(),
            dialogue in proptest::option::of((ident(), any::<u32>())),
            fired in proptest::collection::btree_set(any::<u64>(), 0..4),
            trace in proptest::option::of((any::<u64>(), any::<u64>())),
        ) {
            let save = SaveGame {
                game_hash: hash,
                state,
                inventory: inv,
                dialogue,
                fired_timers: fired,
                trace,
            };
            let text = save.to_text();
            let back = SaveGame::from_text(&text).unwrap();
            prop_assert_eq!(back, save);
        }

        #[test]
        fn save_parser_never_panics(text in "[ -~\n]{0,300}") {
            let _ = SaveGame::from_text(&text);
        }
    }
}

/// `SessionLog::to_csv` is the instructor-facing interchange format, so
/// it must round-trip through any minimal RFC-4180 reader for arbitrary
/// content — including fields containing commas, quotes, `\n` and `\r`.
mod session_log_csv {
    use super::*;
    use vgbl::runtime::{LogEvent, SessionLog};

    /// A minimal RFC-4180 parser: quoted fields with `""` escapes, `,`
    /// separators, rows ending in LF or CRLF. Anything `to_csv` emits
    /// that this cannot reassemble is an escaping bug.
    fn parse_csv(s: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = s.chars().peekable();
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    field.push(c);
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => row.push(std::mem::take(&mut field)),
                    // A compliant reader ends the row at CR, CRLF or LF;
                    // an unquoted carriage return therefore *breaks* row
                    // structure — exactly the bug this property pins.
                    '\r' | '\n' => {
                        if c == '\r' && chars.peek() == Some(&'\n') {
                            chars.next();
                        }
                        row.push(std::mem::take(&mut field));
                        rows.push(std::mem::take(&mut row));
                    }
                    _ => field.push(c),
                }
            }
        }
        if !field.is_empty() || !row.is_empty() {
            row.push(field);
            rows.push(row);
        }
        rows
    }

    /// Strings that stress every quoting rule at once.
    fn awkward() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just('a'),
                Just('Z'),
                Just(' '),
                Just(','),
                Just('"'),
                Just('\n'),
                Just('\r'),
                Just('é'),
                Just('中'),
            ],
            0..10,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    fn log_event() -> impl Strategy<Value = LogEvent> {
        prop_oneof![
            (0u64..1_000_000, awkward())
                .prop_map(|(t_ms, name)| LogEvent::ScenarioEntered { t_ms, name }),
            (0u64..1_000_000, awkward(), awkward()).prop_map(|(t_ms, scenario, object)| {
                LogEvent::ObjectExamined { t_ms, scenario, object }
            }),
            (0u64..1_000_000, awkward(), awkward())
                .prop_map(|(t_ms, item, object)| LogEvent::ItemUsed { t_ms, item, object }),
            (0u64..1_000_000, awkward())
                .prop_map(|(t_ms, item)| LogEvent::ItemTaken { t_ms, item }),
            (0u64..1_000_000, -500i64..500)
                .prop_map(|(t_ms, delta)| LogEvent::ScoreDelta { t_ms, delta }),
            (0u64..1_000_000, awkward())
                .prop_map(|(t_ms, outcome)| LogEvent::Ended { t_ms, outcome }),
        ]
    }

    /// What `to_csv` should put in the `(t_ms, event, a, b)` columns.
    fn expected(e: &LogEvent) -> (u64, &'static str, String, String) {
        match e {
            LogEvent::ScenarioEntered { t_ms, name } => {
                (*t_ms, "scenario_entered", name.clone(), String::new())
            }
            LogEvent::ObjectExamined { t_ms, scenario, object } => {
                (*t_ms, "object_examined", scenario.clone(), object.clone())
            }
            LogEvent::ItemUsed { t_ms, item, object } => {
                (*t_ms, "item_used", item.clone(), object.clone())
            }
            LogEvent::ItemTaken { t_ms, item } => (*t_ms, "item_taken", item.clone(), String::new()),
            LogEvent::ScoreDelta { t_ms, delta } => {
                (*t_ms, "score_delta", delta.to_string(), String::new())
            }
            LogEvent::Ended { t_ms, outcome } => (*t_ms, "ended", outcome.clone(), String::new()),
            _ => unreachable!("strategy only builds the variants above"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn session_log_csv_roundtrips(events in proptest::collection::vec(log_event(), 0..12)) {
            let mut log = SessionLog::new();
            for e in events.clone() {
                log.push(e);
            }
            let rows = parse_csv(&log.to_csv());
            prop_assert_eq!(rows.len(), events.len() + 1, "one row per event plus the header");
            prop_assert_eq!(rows[0].join("\u{1}"), "t_ms\u{1}event\u{1}a\u{1}b");
            for (row, e) in rows[1..].iter().zip(&events) {
                prop_assert_eq!(row.len(), 4, "every row has 4 columns");
                let (t_ms, kind, a, b) = expected(e);
                prop_assert_eq!(&row[0], &t_ms.to_string());
                prop_assert_eq!(&row[1], kind);
                prop_assert_eq!(&row[2], &a);
                prop_assert_eq!(&row[3], &b);
            }
        }
    }
}
