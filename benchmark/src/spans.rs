//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around calls into the
//! layers' public functions — nothing inside the program under test is
//! instrumented. One thread, strict nesting: a span's parent is whatever
//! span was open when it started. Spans stay in a `Vec` and are written
//! once, at exit. A recorder that is off costs one branch per boundary,
//! which is how the untraced binary runs the same pass code.

use std::io::{self, Write};
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name (`pass`, `program`, `vm.machine_new`, …).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Pass number the span belongs to (0 = the warm-up pass).
    pub pass: u32,
    /// Index into the recorder's program-name table, when the span is
    /// inside one program.
    pub program: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; does nothing when off.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    programs: Vec<String>,
}

impl Recorder {
    /// A recorder that drops everything (the `wall` binary).
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    /// A recorder that keeps spans.
    pub fn on() -> Recorder {
        Recorder::new(true)
    }

    /// Sets the name table [`Span::program`] indexes.
    pub fn set_programs(&mut self, programs: Vec<String>) {
        self.programs = programs;
    }

    fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            programs: Vec::new(),
        }
    }

    /// Sets the pass number stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span. The span inherits the enclosing span's
    /// program unless `program` names one.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        program: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        let program = program.or_else(|| parent.and_then(|p| self.spans[p].program));
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            pass: self.pass,
            program,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (children never overlap on one thread).
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Total self time per span name, in first-seen order, over the timed
    /// passes (pass ≥ 1).
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.pass == 0 {
                continue;
            }
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += own,
                None => out.push((span.name, own)),
            }
        }
        out
    }

    /// Writes one JSON object per span:
    /// `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…,"pass":…,"program":…}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let program = s
                .program
                .map_or("null".to_string(), |p| format!("\"{}\"", self.programs[p]));
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{},\"program\":{program}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        Ok(())
    }
}

/// See [`Recorder::self_times`].
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            pass: 1,
            program: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass [0,100] ⊃ program [10,90] ⊃ {new [10,20], run [20,80]}.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(10, 20, Some(1)),
            span(20, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 10, 60]);
    }

    #[test]
    fn recorded_children_never_exceed_parent_and_self_times_sum_to_the_pass() {
        let mut rec = Recorder::on();
        rec.set_programs(vec!["p0".into(), "p1".into()]);
        rec.set_pass(1);
        rec.scope("pass", None, |rec| {
            for p in 0..2 {
                rec.scope("program", Some(p), |rec| {
                    rec.scope("vm.machine_new", None, |_| {
                        std::hint::black_box(vec![0u8; 4096])
                    });
                    for _ in 0..3 {
                        rec.scope("vm.run", None, |_| {
                            std::hint::black_box((0..10_000u64).sum::<u64>())
                        });
                    }
                });
            }
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 1 + 2 * (1 + 1 + 3));
        let mut child_sum = vec![0u64; spans.len()];
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(s.start_ns >= spans[p].start_ns && s.end_ns <= spans[p].end_ns);
                child_sum[p] += s.duration_ns();
            }
        }
        for (s, kids) in spans.iter().zip(&child_sum) {
            assert!(*kids <= s.duration_ns(), "children exceed {}", s.name);
        }
        let total: u64 = rec.self_times().iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        // Children inherit the program of the enclosing span.
        assert_eq!(spans[2].program, Some(0));
        assert_eq!(spans.last().unwrap().program, Some(1));
        let by_name: u64 = rec.self_time_by_name().iter().map(|(_, t)| t).sum();
        assert_eq!(by_name, total);
    }

    #[test]
    fn off_recorder_keeps_nothing_and_still_runs_the_closure() {
        let mut rec = Recorder::off();
        let v = rec.scope("pass", None, |rec| rec.scope("program", Some(0), |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = Recorder::on();
        rec.set_programs(vec!["fib".into()]);
        rec.scope("pass", None, |rec| rec.scope("program", Some(0), |_| ()));
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"pass\""));
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"program\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"program\":\"fib\""));
    }
}
