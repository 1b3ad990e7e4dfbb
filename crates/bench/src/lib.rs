#![warn(missing_docs)]

//! # incline-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V). One binary, `incline-bench <figure>`, runs any
//! row of [`figures::FIGURES`]; `incline-bench run_all` executes the full
//! suite and rewrites `EXPERIMENTS.md`.
//!
//! Measurement protocol (paper §V): each benchmark runs `iterations`
//! repetitions in one VM; *peak performance* is the mean of the last 40%
//! (at most 20) repetitions; installed code size is read off the code
//! cache at the end.

use incline_baselines::{C2Inliner, GreedyInliner};
use incline_core::{IncrementalInliner, PolicyConfig};
use incline_vm::{BenchResult, BenchSpec, Inliner, NoInline, RunSession, Value, VmConfig};
use incline_workloads::Workload;

/// The inliner configurations the experiments compare.
#[derive(Clone, Debug)]
pub enum Config {
    /// The paper's algorithm under a policy configuration.
    Incremental(&'static str, PolicyConfig),
    /// Open-source-Graal-style greedy baseline.
    Greedy,
    /// HotSpot-C2-style baseline.
    C2,
    /// No inlining (scalar optimizations only).
    NoInline,
    /// First-tier compiler analog: compiles *every* executed method
    /// immediately, without inlining (the C1 bars of Figure 10).
    C1,
}

impl Config {
    /// Display name used in tables.
    pub fn name(&self) -> &str {
        match self {
            Config::Incremental(n, _) => n,
            Config::Greedy => "greedy",
            Config::C2 => "c2",
            Config::NoInline => "no-inline",
            Config::C1 => "c1",
        }
    }

    /// Builds a fresh inliner instance.
    pub fn build(&self) -> Box<dyn Inliner> {
        match self {
            Config::Incremental(n, c) => Box::new(IncrementalInliner::with_config(*c).named(*n)),
            Config::Greedy => Box::new(GreedyInliner::new()),
            Config::C2 => Box::new(C2Inliner::new()),
            Config::NoInline | Config::C1 => Box::new(NoInline),
        }
    }

    /// The paper's algorithm with the substrate-tuned constants
    /// (`PolicyConfig::tuned`, see DESIGN.md §1).
    pub fn paper() -> Config {
        Config::Incremental("incremental", PolicyConfig::tuned())
    }

    /// VM configuration for this config (C1 compiles on first invocation).
    pub fn vm(&self) -> VmConfig {
        let mut vm = default_vm();
        if matches!(self, Config::C1) {
            vm.hotness_threshold = 1;
        }
        vm
    }
}

/// The VM configuration shared by all experiments.
pub fn default_vm() -> VmConfig {
    VmConfig {
        hotness_threshold: 5,
        ..VmConfig::default()
    }
}

/// One measured (benchmark, config) cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration name.
    pub config: String,
    /// Raw results.
    pub result: BenchResult,
}

impl Measurement {
    /// Steady-state cycles (lower is better).
    pub fn cycles(&self) -> f64 {
        self.result.steady_state
    }

    /// Installed code bytes.
    pub fn code_bytes(&self) -> u64 {
        self.result.installed_bytes
    }

    /// Mutator-visible compile stall cycles (see `BenchResult::stall_cycles`).
    pub fn stall_cycles(&self) -> u64 {
        self.result.stall_cycles
    }
}

/// A session running `w` at its own input and repetition count, under
/// `config`'s inliner and `vm` — how every figure runs a workload.
pub(crate) fn session<'w>(w: &'w Workload, config: &Config, vm: VmConfig) -> RunSession<'w> {
    let spec = BenchSpec {
        entry: w.entry,
        args: vec![Value::Int(w.input)],
        iterations: w.iterations,
    };
    RunSession::new(&w.program, spec)
        .inliner(config.build())
        .config(vm)
}

/// Measures one benchmark under one configuration.
pub fn measure(w: &Workload, config: &Config) -> Measurement {
    measure_with_vm(w, config, config.vm())
}

/// Like [`measure`] with an explicit [`VmConfig`] — the pipelined-install
/// experiments vary `compile_threads` (the modelled worker count) and
/// `install_policy` on top of the shared defaults.
pub fn measure_with_vm(w: &Workload, config: &Config, vm: VmConfig) -> Measurement {
    let result = session(w, config, vm)
        .run()
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, config.name()));
    Measurement {
        benchmark: w.name.clone(),
        config: config.name().to_string(),
        result,
    }
}

/// Measures one benchmark under several configurations, checking that all
/// configurations computed the same answer.
pub fn measure_all(w: &Workload, configs: &[Config]) -> Vec<Measurement> {
    let ms: Vec<Measurement> = configs.iter().map(|c| measure(w, c)).collect();
    let reference = &ms[0].result.final_output;
    let ref_value = &ms[0].result.final_value;
    for m in &ms[1..] {
        assert_eq!(
            &m.result.final_output, reference,
            "{}: output diverged between {} and {}",
            w.name, ms[0].config, m.config
        );
        assert_eq!(
            &m.result.final_value, ref_value,
            "{}: value diverged under {}",
            w.name, m.config
        );
    }
    ms
}

// ---- table rendering ---------------------------------------------------------

/// Renders an aligned text table.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats cycles in engineering notation.
pub fn fmt_cycles(c: f64) -> String {
    if c >= 1e9 {
        format!("{:.2}G", c / 1e9)
    } else if c >= 1e6 {
        format!("{:.2}M", c / 1e6)
    } else if c >= 1e3 {
        format!("{:.1}k", c / 1e3)
    } else {
        format!("{c:.0}")
    }
}

/// Formats bytes as KiB.
pub fn fmt_kib(b: u64) -> String {
    format!("{:.1}K", b as f64 / 1024.0)
}

/// Normalized slowdown vs. a reference (1.00 = equal, 1.50 = 50% slower).
pub fn normalized(value: f64, reference: f64) -> String {
    format!("{:.2}", value / reference.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_one_cell() {
        let w = incline_workloads::by_name("scalatest")
            .unwrap()
            .with_input(4)
            .with_iterations(4);
        let m = measure(&w, &Config::paper());
        assert!(m.cycles() > 0.0);
        assert_eq!(m.benchmark, "scalatest");
    }

    #[test]
    fn cross_config_outputs_agree() {
        let w = incline_workloads::by_name("avrora")
            .unwrap()
            .with_input(4)
            .with_iterations(3);
        let ms = measure_all(&w, &[Config::paper(), Config::Greedy, Config::C2]);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["bench".to_string(), "a".to_string()],
            &[vec!["x".to_string(), "1.00".to_string()]],
        );
        assert!(t.contains("bench"));
        assert!(t.contains("----"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_cycles(1500.0), "1.5k");
        assert_eq!(fmt_cycles(2_500_000.0), "2.50M");
        assert_eq!(fmt_kib(2048), "2.0K");
        assert_eq!(normalized(150.0, 100.0), "1.50");
    }
}

pub mod alloc;
pub mod compile;
pub mod drift;
pub mod figures;
pub mod json;
pub mod server;
