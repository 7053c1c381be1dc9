//! The metric catalog matches `BENCHMARK.json`, and the timing wrappers
//! leave simulated results unchanged on a short run of every workload.

use std::collections::BTreeMap;
use std::path::Path;

use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::sim::{range_failures, run_point, session_stats, stream_failures, LayerSpans};
use perfbench::suite::{book_sample, set_up, Bench, Point};

/// A JSON value: just enough to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
                out.push(match self.s[self.i] {
                    b'n' => '\n',
                    b't' => '\t',
                    c => c as char,
                });
                self.i += 1;
            } else {
                let rest = std::str::from_utf8(&self.s[self.i..]).expect("utf-8");
                let ch = rest.chars().next().expect("a character");
                out.push(ch);
                self.i += ch.len_utf8();
            }
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(map.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("unexpected {w}"),
                }
            }
            _ => {
                let num: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    .map(|&c| c as char)
                    .collect();
                self.i += num.len();
                Json::Num(num.parse().expect("a number"))
            }
        }
    }
}

fn benchmark_json() -> BTreeMap<String, Json> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    match (Parser {
        s: text.as_bytes(),
        i: 0,
    })
    .value()
    {
        Json::Obj(m) => m,
        other => panic!("BENCHMARK.json is not an object: {other:?}"),
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    match obj {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing {key}")),
        _ => panic!("not an object"),
    }
}

fn text(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn array(j: &Json) -> &[Json] {
    match j {
        Json::Arr(a) => a,
        other => panic!("not an array: {other:?}"),
    }
}

fn assert_metrics(listed: &Json, catalog: &[MetricDef]) {
    let listed: Vec<(&str, &str, &str)> = array(listed)
        .iter()
        .map(|m| {
            (
                text(field(m, "name")),
                text(field(m, "unit")),
                text(field(m, "better")),
            )
        })
        .collect();
    let catalog: Vec<(&str, &str, &str)> =
        catalog.iter().map(|d| (d.name, d.unit, d.better)).collect();
    assert_eq!(listed, catalog);
}

#[test]
fn metric_names_match_benchmark_json() {
    let doc = benchmark_json();
    assert_metrics(&doc["end_to_end"], &END_TO_END);
    assert_metrics(&doc["per_layer"], &PER_LAYER);
    for w in array(&doc["workloads"]) {
        let name = text(field(w, "name"));
        assert!(Bench::parse(name).is_some(), "unknown workload {name}");
    }
    for m in array(&doc["end_to_end"]) {
        match field(m, "bound") {
            Json::Num(b) => assert!(*b > 0.0 && *b <= 0.25, "{m:?}"),
            other => panic!("bound is not a number: {other:?}"),
        }
    }
}

/// A workload's points, shortened so the debug build runs them quickly.
fn short(points: Vec<Point>) -> Vec<Point> {
    points
        .into_iter()
        .map(|p| Point {
            warmup: p.warmup.min(500),
            instrs: p.instrs.min(2_000),
            ..p
        })
        .collect()
}

#[test]
fn wrappers_leave_simstats_unchanged_on_every_workload() {
    let scratch = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    for bench in Bench::ALL {
        let points = if bench == Bench::Book {
            book_sample()
        } else {
            set_up(bench, 7, &scratch)
        };
        for p in short(points) {
            let plain = run_point(&p, 7, None);
            let spans = LayerSpans::default();
            let traced = run_point(&p, 7, Some(&spans));
            assert_eq!(plain.stats, traced.stats, "{}", p.label());
            assert_eq!(plain.warm, traced.warm, "{}", p.label());
            assert_eq!(session_stats(&p, 7), plain.stats, "{}", p.label());
            assert!(range_failures(&p, &plain.stats).is_empty(), "{}", p.label());
            assert!(stream_failures(&p, 7, &plain).is_empty(), "{}", p.label());
            assert!(spans.lsq.total_calls() > 0, "{}", p.label());
            assert!(spans.trace.ops() >= plain.warm.committed + plain.stats.committed);
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
}
