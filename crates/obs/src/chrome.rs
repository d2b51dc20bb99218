//! Lossless `chrome://tracing` JSON export of an event stream.
//!
//! Spans become complete (`"ph": "X"`) events on per-lane tracks with
//! nanosecond timebase; memory and codec events become instant events
//! (`"ph": "i"`) whose `ts` is the event's stream index. Every field of
//! every [`Event`] lands in the JSON (discriminated by `args.kind`), so
//! [`parse_chrome`] reconstructs the exact event stream — the round-trip
//! property the trace tests pin.

use crate::event::{Event, Phase};
use crate::json::{self, Value};
use std::fmt::Write as _;

/// Renders an event stream as a Chrome-tracing JSON array.
pub fn export_chrome(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        let body = match ev {
            Event::Span { name, phase, wave, lane, ts_ns, dur_ns } => format!(
                "{{\"name\": \"{}\", \"cat\": \"op\", \"ph\": \"X\", \"ts\": {ts_ns}, \
                 \"dur\": {dur_ns}, \"pid\": 1, \"tid\": \"{}-lane{lane}\", \"args\": \
                 {{\"kind\": \"span\", \"phase\": \"{}\", \"wave\": {wave}, \"lane\": {lane}}}}}",
                json::escape(name),
                phase.label(),
                phase.label(),
            ),
            Event::Alloc { name, bytes } => instant(i, name, "mem", "alloc", bytes),
            Event::Free { name, bytes } => instant(i, name, "mem", "free", bytes),
            Event::Transient { name, bytes } => instant(i, name, "mem", "transient", bytes),
            Event::Reuse { from, into } => format!(
                "{{\"name\": \"{}\", \"cat\": \"mem\", \"ph\": \"i\", \"ts\": {i}, \"pid\": 1, \
                 \"tid\": \"mem\", \"s\": \"t\", \"args\": {{\"kind\": \"reuse\", \"into\": \
                 \"{}\"}}}}",
                json::escape(from),
                json::escape(into),
            ),
            Event::Encode { name, codec, raw_bytes, encoded_bytes } => {
                codec_event(i, name, "encode", codec, *raw_bytes, *encoded_bytes)
            }
            Event::Decode { name, codec, raw_bytes, encoded_bytes } => {
                codec_event(i, name, "decode", codec, *raw_bytes, *encoded_bytes)
            }
            Event::NetTransfer {
                name,
                rank,
                peer,
                sent,
                priced_bytes,
                observed_bytes,
                ts_ns,
                dur_ns,
            } => {
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"net\", \"ph\": \"X\", \"ts\": {ts_ns}, \
                     \"dur\": {dur_ns}, \"pid\": 1, \"tid\": \"net-rank{rank}\", \"args\": \
                     {{\"kind\": \"net\", \"rank\": {rank}, \"peer\": {peer}, \"sent\": {sent}, \
                     \"priced_bytes\": {priced_bytes}, \"observed_bytes\": {observed_bytes}}}}}",
                    json::escape(name),
                )
            }
            Event::Transfer { name, to_host, bytes, ts_ns, dur_ns } => format!(
                "{{\"name\": \"{}\", \"cat\": \"pcie\", \"ph\": \"X\", \"ts\": {ts_ns}, \
                 \"dur\": {dur_ns}, \"pid\": 1, \"tid\": \"pcie-{}\", \"args\": \
                 {{\"kind\": \"transfer\", \"to_host\": {to_host}, \"bytes\": {bytes}}}}}",
                json::escape(name),
                if *to_host { "out" } else { "in" },
            ),
        };
        let _ = writeln!(out, "  {body}{}", if i + 1 == events.len() { "" } else { "," });
    }
    out.push_str("]\n");
    out
}

fn instant(i: usize, name: &str, cat: &str, kind: &str, bytes: &u64) -> String {
    format!(
        "{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"i\", \"ts\": {i}, \"pid\": 1, \
         \"tid\": \"{cat}\", \"s\": \"t\", \"args\": {{\"kind\": \"{kind}\", \"bytes\": \
         {bytes}}}}}",
        json::escape(name),
    )
}

fn codec_event(i: usize, name: &str, kind: &str, codec: &str, raw: u64, enc: u64) -> String {
    format!(
        "{{\"name\": \"{}\", \"cat\": \"codec\", \"ph\": \"i\", \"ts\": {i}, \"pid\": 1, \
         \"tid\": \"codec\", \"s\": \"t\", \"args\": {{\"kind\": \"{kind}\", \"codec\": \
         \"{}\", \"raw_bytes\": {raw}, \"encoded_bytes\": {enc}}}}}",
        json::escape(name),
        json::escape(codec),
    )
}

/// A malformed trace document.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The document is not valid JSON.
    Json(json::JsonError),
    /// An event object is missing a field or has the wrong type.
    Malformed {
        /// Index of the event in the array.
        index: usize,
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Json(e) => write!(f, "{e}"),
            ParseError::Malformed { index, msg } => write!(f, "event {index}: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Re-parses a document written by [`export_chrome`] back into the exact
/// event stream.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed JSON or event objects.
pub fn parse_chrome(text: &str) -> Result<Vec<Event>, ParseError> {
    let doc = json::parse(text).map_err(ParseError::Json)?;
    let items = doc
        .as_array()
        .ok_or(ParseError::Malformed { index: 0, msg: "top level is not an array".into() })?;
    items.iter().enumerate().map(|(i, item)| parse_event(i, item)).collect()
}

fn parse_event(index: usize, item: &Value) -> Result<Event, ParseError> {
    let bad = |msg: &str| ParseError::Malformed { index, msg: msg.to_string() };
    let name =
        item.get("name").and_then(Value::as_str).ok_or_else(|| bad("missing name"))?.to_string();
    let args = item.get("args").ok_or_else(|| bad("missing args"))?;
    let kind = args.get("kind").and_then(Value::as_str).ok_or_else(|| bad("missing kind"))?;
    let arg_u64 = |key: &str| -> Result<u64, ParseError> {
        args.get(key).and_then(Value::as_u64).ok_or_else(|| bad(&format!("missing {key}")))
    };
    Ok(match kind {
        "span" => {
            let phase = args
                .get("phase")
                .and_then(Value::as_str)
                .and_then(Phase::from_label)
                .ok_or_else(|| bad("bad phase"))?;
            let top_u64 = |key: &str| -> Result<u64, ParseError> {
                item.get(key).and_then(Value::as_u64).ok_or_else(|| bad(&format!("missing {key}")))
            };
            Event::Span {
                name,
                phase,
                wave: arg_u64("wave")? as u32,
                lane: arg_u64("lane")? as u32,
                ts_ns: top_u64("ts")?,
                dur_ns: top_u64("dur")?,
            }
        }
        "alloc" => Event::Alloc { name, bytes: arg_u64("bytes")? },
        "free" => Event::Free { name, bytes: arg_u64("bytes")? },
        "transient" => Event::Transient { name, bytes: arg_u64("bytes")? },
        "reuse" => Event::Reuse {
            from: name,
            into: args
                .get("into")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("missing into"))?
                .to_string(),
        },
        "transfer" => {
            let top_u64 = |key: &str| -> Result<u64, ParseError> {
                item.get(key).and_then(Value::as_u64).ok_or_else(|| bad(&format!("missing {key}")))
            };
            let to_host = args
                .get("to_host")
                .and_then(Value::as_bool)
                .ok_or_else(|| bad("missing to_host"))?;
            Event::Transfer {
                name,
                to_host,
                bytes: arg_u64("bytes")?,
                ts_ns: top_u64("ts")?,
                dur_ns: top_u64("dur")?,
            }
        }
        "net" => {
            let top_u64 = |key: &str| -> Result<u64, ParseError> {
                item.get(key).and_then(Value::as_u64).ok_or_else(|| bad(&format!("missing {key}")))
            };
            Event::NetTransfer {
                name,
                rank: arg_u64("rank")? as u32,
                peer: arg_u64("peer")? as u32,
                sent: args
                    .get("sent")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| bad("missing sent"))?,
                priced_bytes: arg_u64("priced_bytes")?,
                observed_bytes: arg_u64("observed_bytes")?,
                ts_ns: top_u64("ts")?,
                dur_ns: top_u64("dur")?,
            }
        }
        "encode" | "decode" => {
            let codec = args
                .get("codec")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("missing codec"))?
                .to_string();
            let raw_bytes = arg_u64("raw_bytes")?;
            let encoded_bytes = arg_u64("encoded_bytes")?;
            if kind == "encode" {
                Event::Encode { name, codec, raw_bytes, encoded_bytes }
            } else {
                Event::Decode { name, codec, raw_bytes, encoded_bytes }
            }
        }
        other => return Err(bad(&format!("unknown kind {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::Span {
                name: "conv1".into(),
                phase: Phase::Forward,
                wave: 1,
                lane: 0,
                ts_ns: 12_345,
                dur_ns: 987_654_321,
            },
            Event::Alloc { name: "conv1.y".into(), bytes: 4096 },
            Event::Encode {
                name: "relu1".into(),
                codec: "ssdc".into(),
                raw_bytes: 4096,
                encoded_bytes: 1033,
            },
            Event::Reuse { from: "conv1.y".into(), into: "relu1.y".into() },
            Event::Transient { name: "conv1.dec".into(), bytes: 4096 },
            Event::Decode {
                name: "relu1".into(),
                codec: "ssdc".into(),
                raw_bytes: 4096,
                encoded_bytes: 1033,
            },
            Event::Span {
                name: "conv1".into(),
                phase: Phase::Backward,
                wave: 1,
                lane: 0,
                ts_ns: u64::MAX >> 12,
                dur_ns: 1,
            },
            Event::Free { name: "relu1.y".into(), bytes: 4096 },
            Event::Transfer {
                name: "relu1.stash".into(),
                to_host: true,
                bytes: 1033,
                ts_ns: 42,
                dur_ns: 86,
            },
            Event::Transfer {
                name: "relu1.stash".into(),
                to_host: false,
                bytes: 1033,
                ts_ns: 900,
                dur_ns: 86,
            },
            Event::NetTransfer {
                name: "allreduce.n3.main.r0e1".into(),
                rank: 1,
                peer: 0,
                sent: true,
                priced_bytes: 1033,
                observed_bytes: 1061,
                ts_ns: 1_200,
                dur_ns: 95,
            },
        ]
    }

    #[test]
    fn round_trip_is_lossless() {
        let events = sample();
        let doc = export_chrome(&events);
        assert_eq!(parse_chrome(&doc).unwrap(), events);
    }

    #[test]
    fn weird_names_survive_the_round_trip() {
        let events = vec![Event::Alloc { name: "we\"ird\\layer\n".into(), bytes: 7 }];
        assert_eq!(parse_chrome(&export_chrome(&events)).unwrap(), events);
    }

    #[test]
    fn every_truncation_of_an_exported_trace_is_an_error() {
        let doc = export_chrome(&sample());
        let doc = doc.trim_end();
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            assert!(parse_chrome(&doc[..cut]).is_err(), "a {cut}-byte prefix parsed");
        }
    }

    #[test]
    fn empty_stream_round_trips() {
        assert_eq!(parse_chrome(&export_chrome(&[])).unwrap(), vec![]);
    }

    #[test]
    fn output_is_well_formed_chrome_json() {
        let doc = export_chrome(&sample());
        assert!(doc.trim_start().starts_with('['));
        assert!(doc.trim_end().ends_with(']'));
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 5);
        assert_eq!(doc.matches("\"ph\": \"i\"").count(), 6);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(matches!(parse_chrome("not json"), Err(ParseError::Json(_))));
        assert!(matches!(parse_chrome("{}"), Err(ParseError::Malformed { .. })));
        assert!(matches!(
            parse_chrome(r#"[{"name": "x", "args": {"kind": "alloc"}}]"#),
            Err(ParseError::Malformed { .. })
        ));
        assert!(matches!(
            parse_chrome(r#"[{"name": "x", "args": {"kind": "wat"}}]"#),
            Err(ParseError::Malformed { .. })
        ));
    }
}
