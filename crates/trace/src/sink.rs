//! Trace sinks: where compilation events go.

use std::io::Write;
use std::sync::Mutex;

use crate::event::CompileEvent;

/// A consumer of [`CompileEvent`]s.
///
/// Sinks take `&self` and use interior mutability where they need state.
/// Every sink must be `Send + Sync`, so one handle can be shared between a
/// machine and whoever reads the events: the bundled sinks use a [`Mutex`]
/// around their state, uncontended in practice because the VM compiles and
/// emits on one thread. The trait is still carried by reference inside
/// `Copy` contexts (the same way `CompileFuel` is).
pub trait TraceSink: Send + Sync {
    /// Whether this sink wants events at all. Producers consult this before
    /// building an event, so a disabled sink costs one virtual call and no
    /// allocation.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn emit(&self, event: CompileEvent);
}

/// The zero-cost default sink: reports `enabled() == false` and drops
/// anything it is handed anyway.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: CompileEvent) {}
}

/// A shared [`NullSink`] for contexts that need a `&'static dyn TraceSink`.
pub static NULL_SINK: NullSink = NullSink;

/// Buffers events in memory for programmatic consumers (`compile --explain`,
/// tests, visualizers).
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<CompileEvent>>,
}

impl CollectingSink {
    /// An empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// Whether no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.events.lock().expect("sink lock").is_empty()
    }

    /// Drain and return the collected events.
    pub fn take(&self) -> Vec<CompileEvent> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }
}

impl TraceSink for CollectingSink {
    fn emit(&self, event: CompileEvent) {
        self.events.lock().expect("sink lock").push(event);
    }
}

/// Serializes each event as one JSON object per line (JSONL) into any
/// [`Write`] target. The serializer (`CompileEvent::to_json`) is generated
/// from the event declaration and deterministic; write errors are swallowed
/// so tracing can never fail a compilation. The writer sits behind a
/// [`Mutex`] so the sink is `Sync` like every other.
#[derive(Debug, Default)]
pub struct JsonlSink<W: Write> {
    out: Mutex<W>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Unwrap the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().expect("sink lock")
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, event: CompileEvent) {
        let mut out = self.out.lock().expect("sink lock");
        let _ = out.write_all(event.to_json().as_bytes());
        let _ = out.write_all(b"\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(!NULL_SINK.enabled());
        NullSink.emit(CompileEvent::FuelCharged {
            amount: 1,
            spent: 1,
        });
    }

    #[test]
    fn collecting_sink_buffers_in_order() {
        let sink = CollectingSink::new();
        assert!(sink.is_empty());
        sink.emit(CompileEvent::FuelCharged {
            amount: 5,
            spent: 5,
        });
        sink.emit(CompileEvent::FuelCharged {
            amount: 3,
            spent: 8,
        });
        assert_eq!(sink.len(), 2);
        let events = sink.take();
        assert_eq!(
            events,
            vec![
                CompileEvent::FuelCharged {
                    amount: 5,
                    spent: 5
                },
                CompileEvent::FuelCharged {
                    amount: 3,
                    spent: 8
                },
            ]
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn sinks_are_shareable_across_threads() {
        let sink = std::sync::Arc::new(CollectingSink::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sink = std::sync::Arc::clone(&sink);
                s.spawn(move || {
                    sink.emit(CompileEvent::FuelCharged {
                        amount: t,
                        spent: t,
                    });
                });
            }
        });
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(CompileEvent::FuelCharged {
            amount: 5,
            spent: 5,
        });
        sink.emit(CompileEvent::FuelCharged {
            amount: 3,
            spent: 8,
        });
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\":\"FuelCharged\""));
        assert!(text.ends_with('\n'));
    }
}
