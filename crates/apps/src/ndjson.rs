//! The serving protocol's NDJSON codec: one flat JSON object per line.
//!
//! This is the flat path of the workspace's one JSON codec,
//! [`mmsec_platform::obs::json`], re-exported under the protocol's names:
//! [`parse_object_into`] reads one `{"k": v, ...}` line into a recycled
//! [`ObjBuf`], [`ObjWriter`] builds one, and a field value is a [`Value`]
//! (the codec's `Json`; protocol lines only carry its scalar variants).
//! Unknown fields are preserved by the parser so callers can choose to
//! ignore or reject them.

pub use mmsec_platform::obs::json::{
    parse_object, parse_object_into, Json as Value, ObjBuf, ObjWriter,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_flat_object() {
        let got =
            parse_object(r#"{"origin": 2, "release": 1.5, "note": "a\"b", "ok": true}"#).unwrap();
        assert_eq!(got[0], ("origin".into(), Value::Num(2.0)));
        assert_eq!(got[1], ("release".into(), Value::Num(1.5)));
        assert_eq!(got[2], ("note".into(), Value::Str("a\"b".into())));
        assert_eq!(got[3], ("ok".into(), Value::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a": }"#).is_err());
        assert!(parse_object(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_object(r#"{"a": {"nested": 1}}"#).is_err());
        assert!(
            parse_object(r#"{"a": 1e999}"#).is_err(),
            "inf must be rejected"
        );
        assert!(parse_object("[1, 2]").is_err());
    }

    #[test]
    fn empty_object_is_fine() {
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object(" { } ").unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let got = parse_object(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(got, vec![("a".into(), Value::Num(2.0))]);
    }

    #[test]
    fn writer_roundtrips_through_the_parser() {
        let mut w = ObjWriter::typed("completion");
        w.num_field("job", 3.0)
            .num_field("stretch", 1.25)
            .str_field("target", "cloud:1")
            .str_field("weird", "a\"b\\c\nd");
        let line = w.finish();
        let got = parse_object(&line).unwrap();
        assert_eq!(got[0].1, Value::Str("completion".into()));
        assert_eq!(got[1].1, Value::Num(3.0));
        assert_eq!(got[2].1, Value::Num(1.25));
        assert_eq!(got[3].1, Value::Str("cloud:1".into()));
        assert_eq!(got[4].1, Value::Str("a\"b\\c\nd".into()));
    }

    #[test]
    fn integers_serialize_without_a_decimal_point() {
        let mut w = ObjWriter::typed("t");
        w.num_field("n", 42.0);
        assert_eq!(w.finish(), r#"{"type":"t","n":42}"#);
    }

    #[test]
    fn unicode_escapes_decode() {
        let got = parse_object(r#"{"s": "caf\u00e9"}"#).unwrap();
        assert_eq!(got[0].1, Value::Str("café".into()));
        // Raw multi-byte UTF-8 passes through untouched too.
        let got = parse_object(r#"{"s": "café"}"#).unwrap();
        assert_eq!(got[0].1, Value::Str("café".into()));
    }

    #[test]
    fn line_verdicts_and_error_text_are_pinned() {
        // The error text is protocol: it lands in the `error` field of
        // `reject` records. `Ok(n)` is an accepted line with n fields.
        let table: &[(&str, Result<usize, &str>)] = &[
            ("", Err("expected '{' at byte 0")),
            ("definitely not json", Err("expected '{' at byte 0")),
            ("[1, 2]", Err("expected '{' at byte 0")),
            ("{", Err("expected '\"' at byte 1")),
            ("{a: 1}", Err("expected '\"' at byte 1")),
            (r#"{"a": }"#, Err("expected a value at byte 6")),
            (r#"{"a": NaN}"#, Err("expected a value at byte 6")),
            (r#"{"a": 1,}"#, Err("expected '\"' at byte 8")),
            (r#"{"a" 1}"#, Err("expected ':' at byte 5")),
            (r#"{"a": 1 "b": 2}"#, Err("expected ',' or '}' at byte 8")),
            (r#"{"a": 1} trailing"#, Err("trailing input at byte 9")),
            (r#"{"a": {"b": 1}}"#, Err("nested values are not supported")),
            (r#"{"a": [1]}"#, Err("nested values are not supported")),
            (r#"{"a": 1e999}"#, Err("non-finite number \"1e999\"")),
            (r#"{"a": 1-2}"#, Err("bad number \"1-2\"")),
            (r#"{"a": -}"#, Err("bad number \"-\"")),
            (r#"{"a": tru}"#, Err("expected true at byte 6")),
            (r#"{"a": "x}"#, Err("unterminated string")),
            (r#"{"a": "x\"#, Err("unterminated escape")),
            (r#"{"a": "\q"}"#, Err("bad escape \\q")),
            (r#"{"a": "\u00"#, Err("truncated \\u escape")),
            (r#"{"a": "\u12"}"#, Err("bad \\u escape 12\"}")),
            (r#"{"a": "\ud800"}"#, Err("\\ud800 is not a scalar value")),
            (" { } ", Ok(0)),
            (r#"{"a": 1, "a": 2}"#, Ok(1)),
            ("{\"a\": \"raw\ttab\"}", Ok(1)),
            // `u32::from_str_radix` lets a sign into a `\u` escape.
            (r#"{"a": "\u+041"}"#, Ok(1)),
            (
                r#"{"n": -0.5e-3, "s": "café", "t": true, "z": null}"#,
                Ok(4),
            ),
        ];
        for &(line, want) in table {
            let got = parse_object(line)
                .map(|fields| fields.len())
                .map_err(|e| e.to_string());
            assert_eq!(got, want.map_err(str::to_string), "line {line:?}");
        }
    }
}
