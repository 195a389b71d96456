//! The declarative scenario: everything one fuzz trial needs, in one
//! serializable value.
//!
//! A [`ScenarioSpec`] plus the code version is the *entire* input of a
//! trial — world topology, workload, coordinator, fault plan, and the seed
//! every RNG stream re-derives from. The TOML encoding is deliberately
//! flat (scalars, one `[scenario]` table, repeated `[[fault]]` tables, one
//! `[steady]` table) and hand-parsed line-by-line, same policy as the
//! JSONL reader in [`crate::traceio`]: no serialization dependency, and a
//! malformed case fails loudly with its line number.

use dvc_core::lsc::LscMethod;
use dvc_sim_core::kind_from_str;

/// Workload names the runner can launch (see [`crate::fuzz::run`]).
pub const WORKLOADS: &[&str] = &["ring", "stream", "hpl", "ptrans"];

/// One scheduled fault window, in seconds relative to the fault anchor
/// (the instant the plan is installed, after workload warm-up).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// A [`dvc_sim_core::FAULT_KINDS`] entry.
    pub kind: String,
    /// Node id for targeted kinds (`clock.step`, `control.*`).
    pub target: Option<u64>,
    pub from_s: f64,
    pub until_s: f64,
    pub magnitude: f64,
}

/// One steady-state fault probability (applies outside windows).
#[derive(Clone, Debug, PartialEq)]
pub struct SteadySpec {
    pub kind: String,
    pub prob: f64,
}

/// A complete fuzz trial, declaratively.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed: world build, sim streams, and fault-plan rolls all
    /// derive from this (see [`dvc_sim_core::rng::derive_seed`]).
    pub seed: u64,
    /// VC size (job nodes), 1–32.
    pub nodes: usize,
    pub spares: usize,
    pub clusters: usize,
    /// Guest TCP retry budget — the silence budget the oracles check
    /// against is derived from this, not hardcoded.
    pub tcp_retries: u32,
    /// Boot-time clock error bound, ms.
    pub clock_offset_ms: f64,
    /// Per-VM memory footprint, MB.
    pub mem_mb: u32,
    /// Run NTP daemons.
    pub ntp: bool,
    /// An [`LscMethod::NAMES`] entry.
    pub method: String,
    /// A [`WORKLOADS`] entry.
    pub workload: String,
    pub cycles: u32,
    /// Gap between checkpoint cycles, s.
    pub gap_s: f64,
    /// Warm-up before the fault plan is installed, s.
    pub settle_s: f64,
    pub faults: Vec<FaultSpec>,
    pub steady: Vec<SteadySpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            seed: 1,
            nodes: 8,
            spares: 2,
            clusters: 1,
            tcp_retries: 4,
            clock_offset_ms: 5.0,
            mem_mb: 64,
            ntp: true,
            method: "ntp".into(),
            workload: "ring".into(),
            cycles: 1,
            gap_s: 5.0,
            settle_s: 15.0,
            faults: Vec::new(),
            steady: Vec::new(),
        }
    }
}

impl ScenarioSpec {
    /// Reject out-of-range or unknown-name specs before any world is
    /// built. Every accepted spec must run; every generator output and
    /// every parsed corpus case goes through here.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.nodes > 32 {
            return Err(format!("nodes {} outside 1..=32", self.nodes));
        }
        if self.clusters == 0 || self.clusters > 4 {
            return Err(format!("clusters {} outside 1..=4", self.clusters));
        }
        if self.spares > 8 {
            return Err(format!("spares {} > 8", self.spares));
        }
        if !(1..=8).contains(&self.tcp_retries) {
            return Err(format!("tcp_retries {} outside 1..=8", self.tcp_retries));
        }
        if self.mem_mb == 0 || self.mem_mb > 512 {
            return Err(format!("mem_mb {} outside 1..=512", self.mem_mb));
        }
        if self.cycles == 0 || self.cycles > 8 {
            return Err(format!("cycles {} outside 1..=8", self.cycles));
        }
        if LscMethod::from_name(&self.method).is_none() {
            return Err(format!("unknown method {:?}", self.method));
        }
        if !WORKLOADS.contains(&self.workload.as_str()) {
            return Err(format!("unknown workload {:?}", self.workload));
        }
        if self.workload != "stream" && self.nodes < 2 {
            return Err(format!(
                "workload {:?} needs ≥2 nodes (got {})",
                self.workload, self.nodes
            ));
        }
        // NaN-safe positivity: NaN compares false to everything, so demand
        // the affirmative.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.gap_s) || !positive(self.settle_s) {
            return Err("gap_s and settle_s must be positive".into());
        }
        if !(0.0..=1000.0).contains(&self.clock_offset_ms) {
            return Err(format!(
                "clock_offset_ms {} out of range",
                self.clock_offset_ms
            ));
        }
        for f in &self.faults {
            kind_from_str(&f.kind).ok_or_else(|| format!("unknown fault kind {:?}", f.kind))?;
            if f.kind == "clock.step" && f.target.is_none() {
                return Err("clock.step windows need a target node".into());
            }
            let ordered = f.from_s.is_finite() && f.until_s.is_finite() && f.from_s <= f.until_s;
            if !ordered {
                return Err(format!("window {:?} ends before it starts", f.kind));
            }
            if !f.magnitude.is_finite() {
                return Err(format!("window {:?} magnitude not finite", f.kind));
            }
        }
        for s in &self.steady {
            kind_from_str(&s.kind).ok_or_else(|| format!("unknown fault kind {:?}", s.kind))?;
            if !(0.0..=1.0).contains(&s.prob) {
                return Err(format!(
                    "steady {:?} probability {} out of range",
                    s.kind, s.prob
                ));
            }
        }
        Ok(())
    }

    /// Render the `[scenario]` / `[[fault]]` / `[steady]` tables (the body
    /// of a corpus case; [`crate::fuzz::corpus`] adds the header).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[scenario]\n");
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("nodes = {}\n", self.nodes));
        out.push_str(&format!("spares = {}\n", self.spares));
        out.push_str(&format!("clusters = {}\n", self.clusters));
        out.push_str(&format!("tcp_retries = {}\n", self.tcp_retries));
        out.push_str(&format!("clock_offset_ms = {:?}\n", self.clock_offset_ms));
        out.push_str(&format!("mem_mb = {}\n", self.mem_mb));
        out.push_str(&format!("ntp = {}\n", self.ntp));
        out.push_str(&format!("method = \"{}\"\n", self.method));
        out.push_str(&format!("workload = \"{}\"\n", self.workload));
        out.push_str(&format!("cycles = {}\n", self.cycles));
        out.push_str(&format!("gap_s = {:?}\n", self.gap_s));
        out.push_str(&format!("settle_s = {:?}\n", self.settle_s));
        for f in &self.faults {
            out.push_str("\n[[fault]]\n");
            out.push_str(&format!("kind = \"{}\"\n", f.kind));
            if let Some(t) = f.target {
                out.push_str(&format!("target = {t}\n"));
            }
            out.push_str(&format!("from_s = {:?}\n", f.from_s));
            out.push_str(&format!("until_s = {:?}\n", f.until_s));
            out.push_str(&format!("magnitude = {:?}\n", f.magnitude));
        }
        if !self.steady.is_empty() {
            out.push_str("\n[steady]\n");
            for s in &self.steady {
                out.push_str(&format!("\"{}\" = {:?}\n", s.kind, s.prob));
            }
        }
        out
    }
}

/// Where a line-based parse currently is.
enum Section {
    Preamble,
    Scenario,
    Fault,
    Steady,
}

/// Split `key = value`, unquoting a quoted key or value.
fn key_value(line: &str) -> Option<(String, String)> {
    let (k, v) = line.split_once('=')?;
    let unquote = |s: &str| {
        let s = s.trim();
        s.strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .unwrap_or(s)
            .to_string()
    };
    Some((unquote(k), unquote(v)))
}

/// Parsed corpus-case body: the spec plus any top-level `key = value`
/// pairs that appeared before `[scenario]` (the case header).
#[derive(Debug)]
pub struct ParsedSpec {
    pub spec: ScenarioSpec,
    pub header: Vec<(String, String)>,
}

/// Parse the TOML dialect [`ScenarioSpec::to_toml`] emits (comments and
/// blank lines allowed anywhere; header keys before `[scenario]` are
/// returned, not interpreted). The parsed spec is validated.
pub fn parse_spec(text: &str) -> Result<ParsedSpec, String> {
    let mut spec = ScenarioSpec {
        faults: Vec::new(),
        steady: Vec::new(),
        ..ScenarioSpec::default()
    };
    let mut header = Vec::new();
    let mut section = Section::Preamble;
    let mut saw_scenario = false;

    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |e: String| format!("line {}: {e}", i + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "[scenario]" => {
                section = Section::Scenario;
                saw_scenario = true;
                continue;
            }
            "[[fault]]" => {
                section = Section::Fault;
                spec.faults.push(FaultSpec {
                    kind: String::new(),
                    target: None,
                    from_s: 0.0,
                    until_s: 0.0,
                    magnitude: 0.0,
                });
                continue;
            }
            "[steady]" => {
                section = Section::Steady;
                continue;
            }
            _ => {}
        }
        if line.starts_with('[') {
            return Err(err(format!("unknown table {line}")));
        }
        let (k, v) = key_value(line).ok_or_else(|| err(format!("not `key = value`: {line}")))?;
        let pu64 = |v: &str| v.parse::<u64>().map_err(|e| err(format!("{k}: {e}")));
        let pf64 = |v: &str| v.parse::<f64>().map_err(|e| err(format!("{k}: {e}")));
        match section {
            Section::Preamble => header.push((k, v)),
            Section::Scenario => match k.as_str() {
                "seed" => spec.seed = pu64(&v)?,
                "nodes" => spec.nodes = pu64(&v)? as usize,
                "spares" => spec.spares = pu64(&v)? as usize,
                "clusters" => spec.clusters = pu64(&v)? as usize,
                "tcp_retries" => spec.tcp_retries = pu64(&v)? as u32,
                "clock_offset_ms" => spec.clock_offset_ms = pf64(&v)?,
                "mem_mb" => spec.mem_mb = pu64(&v)? as u32,
                "ntp" => spec.ntp = v == "true",
                "method" => spec.method = v,
                "workload" => spec.workload = v,
                "cycles" => spec.cycles = pu64(&v)? as u32,
                "gap_s" => spec.gap_s = pf64(&v)?,
                "settle_s" => spec.settle_s = pf64(&v)?,
                _ => return Err(err(format!("unknown scenario key {k:?}"))),
            },
            Section::Fault => {
                let f = spec.faults.last_mut().expect("entered via [[fault]]");
                match k.as_str() {
                    "kind" => f.kind = v,
                    "target" => f.target = Some(pu64(&v)?),
                    "from_s" => f.from_s = pf64(&v)?,
                    "until_s" => f.until_s = pf64(&v)?,
                    "magnitude" => f.magnitude = pf64(&v)?,
                    _ => return Err(err(format!("unknown fault key {k:?}"))),
                }
            }
            Section::Steady => {
                let prob = pf64(&v)?;
                spec.steady.push(SteadySpec { kind: k, prob });
            }
        }
    }
    if !saw_scenario {
        return Err("no [scenario] table".into());
    }
    spec.validate()?;
    Ok(ParsedSpec { spec, header })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 0xDEAD_BEEF,
            nodes: 12,
            spares: 1,
            clusters: 3,
            tcp_retries: 5,
            clock_offset_ms: 42.5,
            mem_mb: 96,
            ntp: false,
            method: "hardened-naive".into(),
            workload: "ptrans".into(),
            cycles: 3,
            gap_s: 7.25,
            settle_s: 11.0,
            faults: vec![
                FaultSpec {
                    kind: "ntp.outage".into(),
                    target: None,
                    from_s: 0.0,
                    until_s: 600.0,
                    magnitude: 1.0,
                },
                FaultSpec {
                    kind: "clock.step".into(),
                    target: Some(2),
                    from_s: 2.0,
                    until_s: 2.0,
                    magnitude: -6.5,
                },
            ],
            steady: vec![SteadySpec {
                kind: "storage.fail".into(),
                prob: 0.25,
            }],
        }
    }

    #[test]
    fn toml_round_trips_exactly() {
        let spec = rich_spec();
        let parsed = parse_spec(&spec.to_toml()).unwrap();
        assert_eq!(parsed.spec, spec);
        assert!(parsed.header.is_empty());
    }

    #[test]
    fn header_keys_and_comments_pass_through() {
        let text = format!(
            "# found by dvc-fuzz --seed 7\nname = \"case\"\nexpect = \"clean\"\n\n{}",
            ScenarioSpec::default().to_toml()
        );
        let parsed = parse_spec(&text).unwrap();
        assert_eq!(
            parsed.header,
            vec![
                ("name".to_string(), "case".to_string()),
                ("expect".to_string(), "clean".to_string())
            ]
        );
        assert_eq!(parsed.spec, ScenarioSpec::default());
    }

    #[test]
    fn malformed_specs_fail_with_line_numbers() {
        assert!(parse_spec("nodes = 4").unwrap_err().contains("[scenario]"));
        let bad = "[scenario]\nnodes = banana\n";
        assert!(parse_spec(bad).unwrap_err().contains("line 2"));
        let unknown = "[scenario]\nwarp_factor = 9\n";
        assert!(parse_spec(unknown).unwrap_err().contains("warp_factor"));
    }

    #[test]
    fn validation_rejects_out_of_range_specs() {
        let s = ScenarioSpec {
            nodes: 0,
            ..ScenarioSpec::default()
        };
        assert!(s.validate().is_err());
        let s = ScenarioSpec {
            method: "chrony".into(),
            ..ScenarioSpec::default()
        };
        assert!(s.validate().is_err());
        let mut s = ScenarioSpec::default();
        s.faults.push(FaultSpec {
            kind: "clock.step".into(),
            target: None,
            from_s: 1.0,
            until_s: 1.0,
            magnitude: 6.0,
        });
        assert!(s.validate().unwrap_err().contains("target"));
        let s = ScenarioSpec {
            workload: "hpl".into(),
            nodes: 1,
            ..ScenarioSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("2 nodes"));
    }
}
