//! Chrome-trace export of pipeline executions.
//!
//! Renders a simulated pipeline or an explicit schedule into the
//! `chrome://tracing` / Perfetto JSON array format: one complete event
//! (`"ph": "X"`) per executed slot, stages as thread lanes. Load the
//! file in `chrome://tracing` or <https://ui.perfetto.dev> to see the
//! Fig. 6 picture interactively.

use predtop_parallel::schedule::{Schedule, Slot, SlotSpan};
use predtop_store::json::Json;

use crate::pipeline::PipelineSim;

/// One trace event in Chrome's JSON format.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (e.g. `"F3"` / `"B3"` / `"mb4"`).
    pub name: String,
    /// Category (`"forward"` / `"backward"` / `"microbatch"`).
    pub cat: String,
    /// Phase: always `"X"` (complete event).
    pub ph: &'static str,
    /// Start timestamp in microseconds.
    pub ts: u64,
    /// Duration in microseconds.
    pub dur: u64,
    /// Process id (constant 1).
    pub pid: u32,
    /// Thread lane = pipeline stage.
    pub tid: u32,
}

fn event(name: String, cat: &str, start_s: f64, finish_s: f64, stage: usize) -> TraceEvent {
    TraceEvent {
        name,
        cat: cat.to_string(),
        ph: "X",
        ts: (start_s * 1e6).round() as u64,
        dur: (((finish_s - start_s) * 1e6).round() as u64).max(1),
        pid: 1,
        tid: stage as u32,
    }
}

/// Trace of an executed [`Schedule`] (per-slot spans from
/// [`Schedule::simulate`]).
pub fn schedule_trace(schedule: &Schedule, spans: &[Vec<SlotSpan>]) -> Vec<TraceEvent> {
    assert_eq!(spans.len(), schedule.num_stages());
    let mut out = Vec::new();
    for (stage, row) in spans.iter().enumerate() {
        for sp in row {
            let (name, cat) = match sp.slot {
                Slot::Forward(i) => (format!("F{i}"), "forward"),
                Slot::Backward(i) => (format!("B{i}"), "backward"),
            };
            out.push(event(name, cat, sp.start, sp.finish, stage));
        }
    }
    out
}

/// Trace of a [`PipelineSim`] run (per-micro-batch blocks; the sim
/// stores finish times, durations come from `stage_times`).
pub fn pipeline_trace(sim: &PipelineSim, stage_times: &[Vec<f64>]) -> Vec<TraceEvent> {
    assert_eq!(sim.finish.len(), stage_times.len());
    let mut out = Vec::new();
    for (stage, (finishes, times)) in sim.finish.iter().zip(stage_times).enumerate() {
        for (mb, (&finish, &dur)) in finishes.iter().zip(times).enumerate() {
            out.push(event(
                format!("mb{mb}"),
                "microbatch",
                finish - dur,
                finish,
                stage,
            ));
        }
    }
    out
}

/// Render events as a Chrome-trace JSON array (pretty-printed, with a
/// trailing newline) through the workspace's one JSON writer.
pub fn to_json(events: &[TraceEvent]) -> String {
    let events: Vec<Json> = events
        .iter()
        .map(|e| {
            Json::obj()
                .field("name", e.name.as_str())
                .field("cat", e.cat.as_str())
                .field("ph", e.ph)
                .field("ts", e.ts)
                .field("dur", e.dur)
                .field("pid", u64::from(e.pid))
                .field("tid", u64::from(e.tid))
        })
        .collect();
    Json::from(events).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate_uniform;
    use predtop_parallel::schedule::one_f_one_b;

    #[test]
    fn schedule_trace_has_all_slots_in_lanes() {
        let sched = one_f_one_b(3, 4);
        let (spans, makespan) = sched.simulate(&[1.0; 3], &[2.0; 3]);
        let events = schedule_trace(&sched, &spans);
        assert_eq!(events.len(), 3 * 2 * 4);
        // lanes 0..3, categories split evenly
        assert!(events
            .iter()
            .all(|e| e.tid < 3 && e.pid == 1 && e.ph == "X"));
        assert_eq!(events.iter().filter(|e| e.cat == "forward").count(), 12);
        // nothing extends past the makespan
        let end_us = (makespan * 1e6).round() as u64;
        assert!(events.iter().all(|e| e.ts + e.dur <= end_us + 1));
        // within one lane events do not overlap
        for lane in 0..3u32 {
            let mut lane_events: Vec<_> = events.iter().filter(|e| e.tid == lane).collect();
            lane_events.sort_by_key(|e| e.ts);
            for w in lane_events.windows(2) {
                assert!(w[0].ts + w[0].dur <= w[1].ts, "overlap in lane {lane}");
            }
        }
    }

    #[test]
    fn pipeline_trace_matches_sim() {
        let times = vec![vec![1.0, 1.5], vec![2.0, 2.0]];
        let sim = simulate_uniform(&[0.0], 1, &[]); // placeholder shape check below
        let _ = sim;
        let sim = crate::pipeline::simulate_pipeline(&times, &[0.25]);
        let events = pipeline_trace(&sim, &times);
        assert_eq!(events.len(), 4);
        // stage 0 mb0 starts at 0
        let first = events
            .iter()
            .find(|e| e.tid == 0 && e.name == "mb0")
            .unwrap();
        assert_eq!(first.ts, 0);
        assert_eq!(first.dur, 1_000_000);
    }

    #[test]
    fn json_is_the_golden_chrome_trace() {
        // 2 stages, 2 micro-batches, unit forward and backward times
        let sched = one_f_one_b(2, 2);
        let (spans, _) = sched.simulate(&[1.0; 2], &[1.0; 2]);
        let json = to_json(&schedule_trace(&sched, &spans));
        assert_eq!(json, GOLDEN_1F1B_2X2);
    }

    /// The 1F1B timeline above, byte for byte: stage 0 runs F0 F1, then
    /// waits for stage 1's backward passes; stage 1 alternates F/B.
    const GOLDEN_1F1B_2X2: &str = r#"[
  {
    "name": "F0",
    "cat": "forward",
    "ph": "X",
    "ts": 0,
    "dur": 1000000,
    "pid": 1,
    "tid": 0
  },
  {
    "name": "F1",
    "cat": "forward",
    "ph": "X",
    "ts": 1000000,
    "dur": 1000000,
    "pid": 1,
    "tid": 0
  },
  {
    "name": "B0",
    "cat": "backward",
    "ph": "X",
    "ts": 3000000,
    "dur": 1000000,
    "pid": 1,
    "tid": 0
  },
  {
    "name": "B1",
    "cat": "backward",
    "ph": "X",
    "ts": 5000000,
    "dur": 1000000,
    "pid": 1,
    "tid": 0
  },
  {
    "name": "F0",
    "cat": "forward",
    "ph": "X",
    "ts": 1000000,
    "dur": 1000000,
    "pid": 1,
    "tid": 1
  },
  {
    "name": "B0",
    "cat": "backward",
    "ph": "X",
    "ts": 2000000,
    "dur": 1000000,
    "pid": 1,
    "tid": 1
  },
  {
    "name": "F1",
    "cat": "forward",
    "ph": "X",
    "ts": 3000000,
    "dur": 1000000,
    "pid": 1,
    "tid": 1
  },
  {
    "name": "B1",
    "cat": "backward",
    "ph": "X",
    "ts": 4000000,
    "dur": 1000000,
    "pid": 1,
    "tid": 1
  }
]
"#;
}
