//! Small-size self-test of the benchmark: every workload runs a few ops,
//! with and without tracing, and must report zero failures, every metric
//! that `BENCHMARK.json` names (with its unit), and — when traced — a span
//! file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A minimal JSON value, enough to read the benchmark's own output and
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input in {text}");
    v
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
            self.s.get(self.i),
            Some(&c),
            "expected {} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    m.insert(k, v);
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}")))
            }
        }
    }
}

/// (name, unit) of the metrics `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let Json::Arr(items) = parse(&text).get(section).clone() else {
        panic!("{section} is not a list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// A private working directory for one run, so runs do not share files.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fundb-perfbench"))
        .args(args)
        .current_dir(dir)
        .env_remove("FUNDB_FAULT")
        .env_remove("FUNDB_THREADS")
        .output()
        .expect("run the benchmark binary")
}

fn check(workload: &str, max_ops: &str, traced: bool) {
    let name = format!("{workload}-{traced}");
    let dir = workdir(&name);
    let trace = if traced { "1" } else { "0" };
    let out = bench(
        &dir,
        &[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            trace,
            "--max-ops",
            max_ops,
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{name}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(
        result.get("failed").num(),
        0.0,
        "{name}: failures\n{stdout}"
    );
    assert_eq!(result.get("correct"), &Json::Bool(true), "{name}");
    assert!(
        result.get("attempted").num() >= 1.0,
        "{name}: nothing attempted"
    );
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("{name}: metrics is not an object");
    };
    let want = declared(if traced { "per_layer" } else { "end_to_end" });
    assert_eq!(metrics.len(), want.len(), "{name}: metric count");
    for (metric, unit) in want {
        let m = metrics
            .get(&metric)
            .unwrap_or_else(|| panic!("{name}: {metric} missing"));
        assert_eq!(m.get("unit").str(), unit, "{name}: unit of {metric}");
        let v = m.get("value").num();
        assert!(v.is_finite(), "{name}: {metric} = {v}");
        if !traced {
            assert!(v > 0.0, "{name}: end-to-end {metric} is {v}");
        }
    }
    let out_dir = dir.join(".perfbench_out");
    if traced {
        let spans = std::fs::read_to_string(out_dir.join(format!("trace-{workload}-7.jsonl")))
            .unwrap_or_else(|e| panic!("{name}: span file: {e}"));
        assert!(spans.lines().count() > 0, "{name}: no spans written");
        let first = parse(spans.lines().next().expect("a span"));
        for key in ["id", "name", "op", "parent", "setup", "start_ns", "end_ns"] {
            first.get(key);
        }
    }
    // Scratch stores are removed at exit; only span files may remain.
    if let Ok(rd) = std::fs::read_dir(&out_dir) {
        for e in rd.flatten() {
            let f = e.file_name().to_string_lossy().into_owned();
            assert!(f.starts_with("trace-"), "{name}: left behind {f}");
        }
    }
}

#[test]
fn spec_build_small() {
    check("spec-build", "12", false);
    check("spec-build", "12", true);
}

#[test]
fn spec_serve_small() {
    check("spec-serve", "20000", false);
    check("spec-serve", "20000", true);
}

#[test]
fn durable_churn_small() {
    // Past one epoch, so sync, snapshot and reopen run too.
    check("durable-churn", "120", false);
    check("durable-churn", "120", true);
}

#[test]
fn removes_stores_of_killed_runs() {
    let dir = workdir("stale");
    // No process has this id (above the kernel's pid limit).
    let stale = dir.join(".perfbench_out/churn-999999999-1");
    std::fs::create_dir_all(&stale).expect("create a stale store");
    std::fs::write(stale.join("wal"), b"left behind").expect("write a stale file");
    let out = bench(
        &dir,
        &[
            "--workload",
            "durable-churn",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
            "--max-ops",
            "5",
        ],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!stale.exists(), "the stale store was not removed");
}

#[test]
fn refuses_a_pinned_environment_override() {
    let dir = workdir("env");
    for var in ["FUNDB_FAULT", "FUNDB_THREADS"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fundb-perfbench"))
            .args([
                "--workload",
                "spec-build",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .current_dir(&dir)
            .env(var, "1")
            .output()
            .expect("run the benchmark binary");
        assert!(!out.status.success(), "{var} set but the benchmark ran");
        assert!(out.stdout.is_empty(), "{var} set but a result was printed");
    }
}
