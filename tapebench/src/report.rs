//! The metric catalogue and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("run_s", "s"),
    ("host_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_kb_per_s", "KB/s"),
    ("sim_mean_delay_s", "s"),
    ("sim_p99_delay_s", "s"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("sched.major.calls", "count"),
    ("sched.major.self_s", "s"),
    ("sched.major.p50_us", "us"),
    ("sched.major.tail_us", "us"),
    ("sched.major.tail_pct", "%"),
    ("sched.major.empty_frac", "ratio"),
    ("sched.arrival.calls", "count"),
    ("sched.arrival.self_s", "s"),
    ("sched.arrival.inserted_frac", "ratio"),
    ("sched.pending_mean", "count"),
    ("sched.plan.requests_mean", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.ns_per_request", "ns"),
    ("sim.engine.steps", "count"),
    ("sim.engine.events", "count"),
    ("sim.service.submit.calls", "count"),
    ("sim.service.submit.self_s", "s"),
    ("sim.service.submit.p50_us", "us"),
    ("sim.service.submit.tail_us", "us"),
    ("sim.service.submit.tail_pct", "%"),
    ("sim.service.run_until.self_s", "s"),
    ("sim.service.rejected_frac", "ratio"),
    ("sim.service.expired_frac", "ratio"),
    ("sim.service.retries", "count"),
    ("sim.writeback.deltas_flushed", "count"),
    ("sim.writeback.piggyback_frac", "ratio"),
    ("sim.writeback.mean_delta_age_s", "s"),
    ("sim.writeback.peak_buffer", "count"),
    ("sim.trace.records", "count"),
    ("sim.trace.record_self_s", "s"),
    ("sim.trace.overhead_frac", "ratio"),
    ("sim.metrics.finish_s", "s"),
    ("sim.metrics.delay_samples", "count"),
    ("layout.build_s", "s"),
    ("layout.expansion", "ratio"),
    ("workload.gen_s", "s"),
    ("workload.requests", "count"),
    ("model.drive.locate_frac", "ratio"),
    ("model.drive.read_frac", "ratio"),
    ("model.drive.switch_frac", "ratio"),
    ("model.drive.idle_frac", "ratio"),
    ("model.robot.switches_per_hour", "1/h"),
    ("model.reads_per_request", "ratio"),
    ("share.sched", "ratio"),
    ("share.sim.engine", "ratio"),
    ("share.sim.service", "ratio"),
    ("share.sim.metrics", "ratio"),
    ("share.unattributed", "ratio"),
    ("bench.untraced_run_s", "s"),
    ("bench.traced_run_s", "s"),
    ("bench.span_overhead_ratio", "ratio"),
    ("bench.traced_reps", "count"),
    ("bench.spans", "count"),
];

/// The result line the benchmark prints last.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Simulated requests submitted across the timed repetitions.
    pub attempted: u64,
    /// Requests of repetitions that errored or failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Builds an outcome from measured values, in the order of
    /// `catalogue`. A metric missing from `values` is an error in the
    /// benchmark itself.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        catalogue: &[(&str, &str)],
        values: &BTreeMap<&str, f64>,
    ) -> Result<Outcome, String> {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                values
                    .get(name)
                    .map(|&v| (name.to_owned(), v, unit.to_owned()))
                    .ok_or_else(|| format!("metric {name} was not measured"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    /// One line of JSON. Numbers use Rust's shortest round-trip form, so
    /// parsing the line gives back exactly these values.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    //! The benchmark's own checks: the name grammar over `BENCHMARK.json`,
    //! the catalogue against it, and a parse round trip of the result
    //! line, with the small JSON reader they need.

    use super::*;

    /// A metric or workload name: starts with a letter or digit, then at
    /// most 64 letters, digits, `_`, `.` and `-` in all.
    pub fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    pub fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// A parsed JSON value; object keys keep their order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number.
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Json>),
        /// An object.
        Object(Vec<(String, Json)>),
    }

    impl Json {
        /// Parses one JSON document.
        pub fn parse(text: &str) -> Result<Json, String> {
            let mut p = Reader {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            if p.i != p.s.len() {
                return Err(format!("trailing data at byte {}", p.i));
            }
            Ok(v)
        }

        /// The member `key` of an object.
        pub fn get(&self, key: &str) -> Result<&Json, String> {
            match self {
                Json::Object(m) => m
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("missing key {key}")),
                _ => Err(format!("not an object (looking for {key})")),
            }
        }

        /// The value as a number.
        pub fn num(&self) -> Result<f64, String> {
            match self {
                Json::Number(n) => Ok(*n),
                _ => Err("not a number".into()),
            }
        }
    }

    struct Reader<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Reader<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&b) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut members = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Json::Object(members));
                    }
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.eat(b':')?;
                        members.push((key, self.value()?));
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Json::Object(members));
                            }
                            _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Json::Array(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        match self.s.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Json::Array(items));
                            }
                            _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => Ok(Json::String(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".into()),
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            while self.s.get(self.i).is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
            text.parse()
                .map(Json::Number)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            if self.s.get(self.i) != Some(&b'"') {
                return Err(format!("expected a string at byte {}", self.i));
            }
            self.i += 1;
            let mut out = Vec::new();
            loop {
                match self.s.get(self.i) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    Some(b'\\') => {
                        let esc = self.s.get(self.i + 1).ok_or("unterminated escape")?;
                        out.push(match esc {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'r' => b'\r',
                            b'"' | b'\\' | b'/' => *esc,
                            _ => return Err(format!("unsupported escape at byte {}", self.i)),
                        });
                        self.i += 2;
                    }
                    Some(&b) => {
                        out.push(b);
                        self.i += 1;
                    }
                }
            }
        }
    }

    /// Parses a line written by [`Outcome::to_json`].
    fn parse_outcome(text: &str) -> Result<Outcome, String> {
        let v = Json::parse(text)?;
        let count = |key: &str| -> Result<u64, String> {
            let n = v.get(key)?.num()?;
            if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
                return Err(format!("{key}: not a whole number"));
            }
            // Checked above: whole, non-negative and exact in an f64.
            Ok(n as u64)
        };
        let correct = match v.get("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("correct: not a boolean".into()),
        };
        let Json::Object(metrics) = v.get("metrics")? else {
            return Err("metrics: not an object".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let Json::String(unit) = m.get("unit")? else {
                    return Err(format!("{name}: unit is not a string"));
                };
                Ok((name.clone(), m.get("value")?.num()?, unit.clone()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key).unwrap() {
            Json::Array(items) => items,
            _ => panic!("{key} is not an array"),
        }
    }

    fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
        match entry.get(key).unwrap() {
            Json::String(s) => s,
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_names_follow_the_grammar() {
        let doc = benchmark_json();
        let mut seen = std::collections::BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for e in entries(&doc, key) {
                let name = str_field(e, "name");
                assert!(valid_name(name), "bad name {name:?}");
                assert!(seen.insert(name.to_owned()), "{name} used twice");
                if key == "workloads" {
                    let why = str_field(e, "why");
                    assert!(why.len() <= 200 && !why.contains('\n'));
                } else {
                    assert!(valid_unit(str_field(e, "unit")));
                    let better = str_field(e, "better");
                    assert!(better == "lower" || better == "higher");
                }
            }
        }
        for e in entries(&doc, "end_to_end") {
            let bound = e.get("bound").unwrap().num().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = entries(&doc, key)
                .iter()
                .map(|e| (str_field(e, "name"), str_field(e, "unit")))
                .collect();
            assert_eq!(listed, catalogue, "{key} differs from the catalogue");
        }
        let names: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|e| str_field(e, "name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert!(e2e.contains(&"setup_s"));
    }

    #[test]
    fn grammar_rejects_bad_names_and_units() {
        assert!(valid_name("sched.major.p50_us"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("KB/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_round_trips() {
        let mut values = BTreeMap::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            values.insert(*name, 0.1 + f64::from(u8::try_from(i).unwrap()) / 3.0);
        }
        let out = Outcome::new(true, 1234, 0, &END_TO_END, &values).unwrap();
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let back = parse_outcome(&line).unwrap();
        assert_eq!(back, out);
        values.remove("run_s");
        assert!(Outcome::new(true, 1, 0, &END_TO_END, &values).is_err());
        assert!(parse_outcome("{\"correct\": true}").is_err());
        assert!(parse_outcome(&format!("{line} trailing")).is_err());
    }
}
