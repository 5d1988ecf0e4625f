//! Pass 3: pinned-constant drift.
//!
//! External contracts — wire verb bytes, protocol error codes,
//! `ServeError::wire_code()` discriminants, and the stable `ftgemm_*`
//! metric-family names — are checked against the golden manifest
//! `analyze/pins.toml` *and* against the tables in
//! `docs/ARCHITECTURE.md`. Drift in any direction fails:
//!
//! * a constant changed value → renumbering breaks deployed clients;
//! * a constant removed → same, plus the pin goes stale;
//! * a new constant not yet pinned → the manifest (a reviewed file) is
//!   how a renumber-vs-append decision becomes deliberate;
//! * docs out of date → the table readers integrate against lies.
//!
//! Band invariants from `proto.rs` are enforced structurally: error
//! codes `1..=99` must mirror a `wire_code` discriminant exactly;
//! protocol-originated codes live at `100+`.

use crate::findings::{Finding, Report};
use crate::lexer::{Tok, Token};
use crate::toml_lite::{Doc, Value};
use std::collections::BTreeMap;

const PASS: &str = "pins";

/// `name → (value, line)` extracted from source.
pub type ConstMap = BTreeMap<String, (i64, usize)>;

/// Extracts `pub const NAME: <ty> = <int>;` entries inside `mod <name> {}`.
pub fn extract_mod_consts(tokens: &[Token], mod_name: &str) -> ConstMap {
    let mut out = ConstMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Ident("mod".into())
            && tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Ident(mod_name.into()))
        {
            // Find the mod body and scan consts inside it.
            let mut j = i + 2;
            while j < tokens.len() && tokens[j].tok != Tok::Punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            while j < tokens.len() {
                match &tokens[j].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(kw) if kw == "const" => {
                        if let Some((name, value, line)) = const_at(tokens, j) {
                            out.insert(name, (value, line));
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

/// Parses `const NAME: ty = <int>;` with the `const` keyword at `j`.
fn const_at(tokens: &[Token], j: usize) -> Option<(String, i64, usize)> {
    let name = match tokens.get(j + 1).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => n.clone(),
        _ => return None,
    };
    // Scan to `=`, then expect an integer literal.
    let mut k = j + 2;
    while k < tokens.len() && tokens[k].tok != Tok::Punct('=') && tokens[k].tok != Tok::Punct(';') {
        k += 1;
    }
    if tokens.get(k).map(|t| &t.tok) != Some(&Tok::Punct('=')) {
        return None;
    }
    match tokens.get(k + 1).map(|t| &t.tok) {
        Some(Tok::Literal(text)) => {
            let value = parse_int(text)?;
            Some((name, value, tokens[k + 1].line))
        }
        _ => None,
    }
}

/// Extracts the `ServeError::<Variant> ... => <int>` arms of
/// `fn wire_code`.
pub fn extract_wire_codes(tokens: &[Token]) -> ConstMap {
    let mut out = ConstMap::new();
    let mut i = 0usize;
    // Find `fn wire_code`.
    while i + 1 < tokens.len() {
        if tokens[i].tok == Tok::Ident("fn".into())
            && tokens[i + 1].tok == Tok::Ident("wire_code".into())
        {
            break;
        }
        i += 1;
    }
    if i + 1 >= tokens.len() {
        return out;
    }
    // Scan its body for `ServeError :: Name ... => Literal`.
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                if depth <= 1 {
                    break;
                }
                depth -= 1;
            }
            Tok::Ident(id)
                if id == "ServeError"
                    && tokens.get(j + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                    && tokens.get(j + 2).map(|t| &t.tok) == Some(&Tok::Punct(':')) =>
            {
                {
                    if let Some(Tok::Ident(variant)) = tokens.get(j + 3).map(|t| &t.tok) {
                        // Find the `=>` then the literal.
                        let mut k = j + 4;
                        while k + 1 < tokens.len() {
                            if tokens[k].tok == Tok::Punct('=')
                                && tokens[k + 1].tok == Tok::Punct('>')
                            {
                                if let Some(Tok::Literal(text)) = tokens.get(k + 2).map(|t| &t.tok)
                                {
                                    if let Some(v) = parse_int(text) {
                                        out.insert(variant.clone(), (v, tokens[k + 2].line));
                                    }
                                }
                                break;
                            }
                            if tokens[k].tok == Tok::Punct(',') {
                                break;
                            }
                            k += 1;
                        }
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    out
}

/// Every distinct string literal that looks like a metric-family name
/// (`ftgemm_` prefix, `[a-z0-9_]` charset), with its first line.
pub fn extract_metric_literals(tokens: &[Token]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for t in tokens {
        if let Tok::Str(s) = &t.tok {
            if s.starts_with("ftgemm_")
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                out.entry(s.clone()).or_insert(t.line);
            }
        }
    }
    out
}

fn parse_int(text: &str) -> Option<i64> {
    // `64`, `64u8`, `0x40`, `1_000` all appear in Rust source.
    let t = text.replace('_', "");
    let t = t
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .trim_end_matches(|c: char| c.is_ascii_digit() && t.contains('x'));
    if let Some(hex) = t.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16).ok();
    }
    // Strip type suffixes like u8/u16/usize (digits already kept).
    let digits: String = text.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Reads a `[section]` of `name = int` pins.
fn int_section<'a>(pins: &'a Doc, section: &str) -> BTreeMap<&'a str, i64> {
    pins.get(section)
        .map(|s| {
            s.iter()
                .filter_map(|(k, v)| match v {
                    Value::Int(i) => Some((k.as_str(), *i)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compares extracted constants against a pinned `[section]`, both ways.
pub fn check_consts(
    pins: &Doc,
    section: &str,
    extracted: &ConstMap,
    file: &str,
    what: &str,
    report: &mut Report,
) {
    let pinned = int_section(pins, section);
    if pinned.is_empty() {
        report.findings.push(Finding::new(
            PASS,
            "pin-missing-section",
            "analyze/pins.toml",
            0,
            format!("manifest has no [{section}] section, but {file} defines {what}s"),
        ));
        return;
    }
    for (name, (value, line)) in extracted {
        match pinned.get(name.as_str()) {
            None => report.findings.push(Finding::new(
                PASS,
                "pin-unpinned",
                file,
                *line,
                format!(
                    "{what} `{name}` = {value} is not in analyze/pins.toml [{section}] — \
                     append it to the manifest (new constants are appended, never renumbered)"
                ),
            )),
            Some(p) if *p != *value => report.findings.push(Finding::new(
                PASS,
                "pin-drift",
                file,
                *line,
                format!(
                    "{what} `{name}` = {value} but analyze/pins.toml [{section}] pins {p} — \
                     renumbering breaks deployed clients; restore the value or mint a new name"
                ),
            )),
            Some(_) => {}
        }
    }
    for (name, p) in &pinned {
        if !extracted.contains_key(*name) {
            report.findings.push(Finding::new(
                PASS,
                "pin-stale",
                file,
                0,
                format!(
                    "{what} `{name}` = {p} is pinned in [{section}] but no longer \
                     defined in {file} — removing a pinned constant breaks deployed clients"
                ),
            ));
        }
    }
}

/// Compares extracted metric names against a pinned string array
/// `[metrics] <key> = [...]`, both ways.
pub fn check_metrics(
    pins: &Doc,
    key: &str,
    extracted: &BTreeMap<String, usize>,
    file: &str,
    report: &mut Report,
) {
    let pinned: Vec<&str> = match pins.get("metrics").and_then(|s| s.get(key)) {
        Some(Value::StrArray(v)) => v.iter().map(|s| s.as_str()).collect(),
        _ => {
            report.findings.push(Finding::new(
                PASS,
                "pin-missing-section",
                "analyze/pins.toml",
                0,
                format!("manifest has no [metrics] {key} = [...] entry for {file}"),
            ));
            return;
        }
    };
    for (name, line) in extracted {
        if !pinned.contains(&name.as_str()) {
            report.findings.push(Finding::new(
                PASS,
                "pin-unpinned",
                file,
                *line,
                format!(
                    "metric family `{name}` is not pinned in [metrics] {key} — metric \
                     names are a dashboard contract; append it to analyze/pins.toml"
                ),
            ));
        }
    }
    for name in &pinned {
        if !extracted.contains_key(*name) {
            report.findings.push(Finding::new(
                PASS,
                "pin-stale",
                file,
                0,
                format!(
                    "metric family `{name}` is pinned in [metrics] {key} but no longer \
                     emitted by {file} — renaming a family breaks every dashboard on it"
                ),
            ));
        }
    }
}

/// Structural band invariants between the verb/error-code consts and the
/// wire_code discriminants.
pub fn check_bands(
    verbs: &ConstMap,
    error_codes: &ConstMap,
    wire_codes: &ConstMap,
    proto_file: &str,
    report: &mut Report,
) {
    // Verb bytes must be unique and fit u8.
    let mut seen: BTreeMap<i64, &str> = BTreeMap::new();
    for (name, (v, line)) in verbs {
        if !(0..=255).contains(v) {
            report.findings.push(Finding::new(
                PASS,
                "band",
                proto_file,
                *line,
                format!("verb `{name}` = {v} does not fit the u8 wire slot"),
            ));
        }
        if let Some(prev) = seen.insert(*v, name) {
            report.findings.push(Finding::new(
                PASS,
                "band",
                proto_file,
                *line,
                format!("verb byte {v} assigned to both `{prev}` and `{name}`"),
            ));
        }
    }
    // Error codes: 1..=99 must mirror a wire_code discriminant with the
    // same normalized name and value; 100+ are protocol-originated.
    for (name, (v, line)) in error_codes {
        if (1..=99).contains(v) {
            let mirror = wire_codes
                .iter()
                .find(|(w, _)| normalize(w) == normalize(name));
            match mirror {
                None => report.findings.push(Finding::new(
                    PASS,
                    "band",
                    proto_file,
                    *line,
                    format!(
                        "error code `{name}` = {v} sits in the ServeError band (1..=99) \
                         but no ServeError variant matches it"
                    ),
                )),
                Some((w, (wv, _))) if wv != v => report.findings.push(Finding::new(
                    PASS,
                    "band",
                    proto_file,
                    *line,
                    format!(
                        "error code `{name}` = {v} disagrees with \
                         ServeError::{w}.wire_code() = {wv}"
                    ),
                )),
                _ => {}
            }
        }
    }
    // Every wire_code discriminant must stay inside 1..=99.
    for (name, (v, line)) in wire_codes {
        if !(1..=99).contains(v) {
            report.findings.push(Finding::new(
                PASS,
                "band",
                "crates/ftgemm-serve/src/request.rs",
                *line,
                format!(
                    "ServeError::{name}.wire_code() = {v} escapes the request-level \
                     band (1..=99); 100+ belongs to the transport"
                ),
            ));
        }
    }
}

/// Docs cross-check: every pinned verb and wire code must appear in
/// `docs/ARCHITECTURE.md` on a line that mentions both its (normalized)
/// name and its exact number.
pub fn check_docs(
    docs_text: &str,
    docs_file: &str,
    verbs: &ConstMap,
    wire_codes: &ConstMap,
    report: &mut Report,
) {
    let lines: Vec<(String, Vec<i64>)> = docs_text
        .lines()
        .map(|l| (normalize(l), line_ints(l)))
        .collect();
    let mut check = |name: &str, value: i64, what: &str| {
        let norm = normalize(name);
        let ok = lines
            .iter()
            .any(|(l, ints)| l.contains(&norm) && ints.contains(&value));
        if !ok {
            report.findings.push(Finding::new(
                PASS,
                "docs-drift",
                docs_file,
                0,
                format!(
                    "{what} `{name}` = {value} is pinned but {docs_file} has no line \
                     mentioning both the name and the number — update the docs table"
                ),
            ));
        }
    };
    for (name, (v, _)) in verbs {
        check(name, *v, "verb");
    }
    for (name, (v, _)) in wire_codes {
        check(name, *v, "wire code");
    }
}

/// Lowercase, alphanumerics only: `SERVER_HELLO` == `ServerHello`.
fn normalize(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

/// All the standalone integers on a line.
fn line_ints(l: &str) -> Vec<i64> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut prev_alpha = false;
    for c in l.chars() {
        if c.is_ascii_digit() && !prev_alpha {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                if let Ok(v) = cur.parse() {
                    out.push(v);
                }
                cur.clear();
            }
            prev_alpha = c.is_ascii_alphanumeric();
        }
    }
    if let Ok(v) = cur.parse() {
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::toml_lite;

    const PROTO_FIXTURE: &str = r#"
        pub mod verb {
            pub const HELLO: u8 = 1;
            pub const ERROR: u8 = 15;
        }
        pub mod error_code {
            pub const SHAPE: u16 = 1;
            pub const MALFORMED_FRAME: u16 = 101;
        }
    "#;

    const REQUEST_FIXTURE: &str = r#"
        impl ServeError {
            pub fn wire_code(&self) -> u16 {
                match self {
                    ServeError::Shape(_) => 1,
                    ServeError::Closed => 3,
                }
            }
        }
    "#;

    #[test]
    fn extracts_mod_consts_and_wire_codes() {
        let l = lex(PROTO_FIXTURE);
        let verbs = extract_mod_consts(&l.tokens, "verb");
        assert_eq!(verbs["HELLO"].0, 1);
        assert_eq!(verbs["ERROR"].0, 15);
        let codes = extract_mod_consts(&l.tokens, "error_code");
        assert_eq!(codes["MALFORMED_FRAME"].0, 101);

        let r = lex(REQUEST_FIXTURE);
        let wires = extract_wire_codes(&r.tokens);
        assert_eq!(wires["Shape"].0, 1);
        assert_eq!(wires["Closed"].0, 3);
    }

    #[test]
    fn matching_pins_are_clean() {
        let pins = toml_lite::parse("[verbs]\nHELLO = 1\nERROR = 15\n").unwrap();
        let l = lex(PROTO_FIXTURE);
        let verbs = extract_mod_consts(&l.tokens, "verb");
        let mut report = Report::default();
        check_consts(&pins, "verbs", &verbs, "proto.rs", "verb", &mut report);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn drift_unpinned_and_stale_all_fire() {
        // HELLO renumbered, GOODBYE stale, ERROR unpinned.
        let pins = toml_lite::parse("[verbs]\nHELLO = 2\nGOODBYE = 14\n").unwrap();
        let l = lex(PROTO_FIXTURE);
        let verbs = extract_mod_consts(&l.tokens, "verb");
        let mut report = Report::default();
        check_consts(&pins, "verbs", &verbs, "proto.rs", "verb", &mut report);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"pin-drift"));
        assert!(rules.contains(&"pin-stale"));
        assert!(rules.contains(&"pin-unpinned"));
        // The drift finding names the file and line of the constant.
        let drift = report
            .findings
            .iter()
            .find(|f| f.rule == "pin-drift")
            .unwrap();
        assert_eq!(drift.file, "proto.rs");
        assert!(drift.line > 0);
    }

    #[test]
    fn metric_names_compare_both_ways() {
        let pins =
            toml_lite::parse("[metrics]\nserve = [\"ftgemm_a_total\", \"ftgemm_gone\"]\n").unwrap();
        let l = lex(r#"fn f() { emit("ftgemm_a_total"); emit("ftgemm_new_total"); }"#);
        let extracted = extract_metric_literals(&l.tokens);
        let mut report = Report::default();
        check_metrics(&pins, "serve", &extracted, "stats.rs", &mut report);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules.len(), 2);
        assert!(rules.contains(&"pin-unpinned")); // ftgemm_new_total
        assert!(rules.contains(&"pin-stale")); // ftgemm_gone
    }

    #[test]
    fn band_checks_mirror_serveerror_discriminants() {
        let l = lex(PROTO_FIXTURE);
        let verbs = extract_mod_consts(&l.tokens, "verb");
        let codes = extract_mod_consts(&l.tokens, "error_code");
        let wires = extract_wire_codes(&lex(REQUEST_FIXTURE).tokens);
        let mut report = Report::default();
        check_bands(&verbs, &codes, &wires, "proto.rs", &mut report);
        assert!(report.is_clean(), "{:?}", report.findings);

        // Now a low-band error code that disagrees with the wire code.
        let bad = lex("pub mod error_code { pub const SHAPE: u16 = 7; }\n\
             pub mod verb { pub const HELLO: u8 = 1; }");
        let bad_codes = extract_mod_consts(&bad.tokens, "error_code");
        let bad_verbs = extract_mod_consts(&bad.tokens, "verb");
        let mut r2 = Report::default();
        check_bands(&bad_verbs, &bad_codes, &wires, "proto.rs", &mut r2);
        assert_eq!(r2.findings.len(), 1);
        assert!(r2.findings[0].message.contains("disagrees"));
    }

    #[test]
    fn docs_check_wants_name_and_number_on_one_line() {
        let l = lex(PROTO_FIXTURE);
        let verbs = extract_mod_consts(&l.tokens, "verb");
        let wires = ConstMap::new();
        let docs_ok = "| `Hello` | 1 | client |\nanything `Error` goes as 15.";
        let mut r = Report::default();
        check_docs(docs_ok, "ARCH.md", &verbs, &wires, &mut r);
        assert!(r.is_clean(), "{:?}", r.findings);

        let docs_bad = "| `Hello` | 2 | renumbered! |"; // wrong number, no Error
        let mut r2 = Report::default();
        check_docs(docs_bad, "ARCH.md", &verbs, &wires, &mut r2);
        assert_eq!(r2.findings.len(), 2);
        assert!(r2.findings.iter().all(|f| f.rule == "docs-drift"));
    }

    #[test]
    fn normalized_names_match_across_cases() {
        assert_eq!(normalize("SERVER_HELLO"), normalize("ServerHello"));
        assert_ne!(normalize("HELLO"), normalize("SERVER_HELLO"));
    }
}
