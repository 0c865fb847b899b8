//! The 1F1B pipeline schedule (§V; Narayanan et al., SOSP 2019).
//!
//! Alpa — and therefore PredTOP's white-box model — assumes the
//! one-forward-one-backward schedule: each stage runs a warm-up of
//! forward micro-batches (deeper stages warm up less), then alternates
//! one forward with one backward, then drains the remaining backwards.
//! This module generates the explicit per-stage slot sequence, validates
//! its dependence structure, and computes its makespan under given
//! forward/backward slot times — the executable counterpart of the
//! closed-form Eqn. 4.

/// One work item in a stage's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Forward pass of micro-batch `i`.
    Forward(usize),
    /// Backward pass of micro-batch `i`.
    Backward(usize),
}

/// The 1F1B schedule: `timeline[s]` is stage `s`'s ordered work list.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-stage ordered slots.
    pub timeline: Vec<Vec<Slot>>,
    /// Number of micro-batches.
    pub microbatches: usize,
}

/// Generate the 1F1B schedule for `stages × microbatches`.
///
/// Stage `s` (0-based, of `S`) warms up with `min(S − s, B)` forwards,
/// then strictly alternates backward/forward until forwards are
/// exhausted, then drains backwards.
///
/// ```
/// use predtop_parallel::schedule::{one_f_one_b, Slot};
/// let sched = one_f_one_b(2, 3);
/// assert!(sched.validate().is_ok());
/// // the deepest stage alternates immediately: F0 B0 F1 B1 F2 B2
/// assert_eq!(sched.timeline[1][..2], [Slot::Forward(0), Slot::Backward(0)]);
/// ```
///
/// # Panics
/// Panics if `stages == 0` or `microbatches == 0`.
pub fn one_f_one_b(stages: usize, microbatches: usize) -> Schedule {
    assert!(stages >= 1 && microbatches >= 1);
    let mut timeline = Vec::with_capacity(stages);
    for s in 0..stages {
        let warmup = (stages - s).min(microbatches);
        let mut slots = Vec::with_capacity(2 * microbatches);
        let mut next_fwd = 0;
        let mut next_bwd = 0;
        for _ in 0..warmup {
            slots.push(Slot::Forward(next_fwd));
            next_fwd += 1;
        }
        while next_bwd < microbatches {
            slots.push(Slot::Backward(next_bwd));
            next_bwd += 1;
            if next_fwd < microbatches {
                slots.push(Slot::Forward(next_fwd));
                next_fwd += 1;
            }
        }
        timeline.push(slots);
    }
    Schedule {
        timeline,
        microbatches,
    }
}

/// Generate the GPipe fill-drain schedule: all forwards, then all
/// backwards. Same total work as 1F1B but every stage must hold all `B`
/// micro-batches' activations at the flush point — the contrast that
/// motivates 1F1B (Huang et al., NeurIPS 2019 vs Narayanan et al., SOSP 2019).
///
/// # Panics
/// Panics if `stages == 0` or `microbatches == 0`.
pub fn gpipe(stages: usize, microbatches: usize) -> Schedule {
    assert!(stages >= 1 && microbatches >= 1);
    let timeline = (0..stages)
        .map(|_| {
            let mut slots: Vec<Slot> = (0..microbatches).map(Slot::Forward).collect();
            slots.extend((0..microbatches).map(Slot::Backward));
            slots
        })
        .collect();
    Schedule {
        timeline,
        microbatches,
    }
}

impl Schedule {
    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.timeline.len()
    }

    /// Validate the schedule's structural invariants: every micro-batch
    /// appears exactly once forward and once backward per stage, each
    /// stage's forward order and backward order are increasing, and a
    /// micro-batch's backward never precedes its forward within a stage.
    pub fn validate(&self) -> Result<(), String> {
        let b = self.microbatches;
        for (s, slots) in self.timeline.iter().enumerate() {
            if slots.len() != 2 * b {
                return Err(format!(
                    "stage {s}: {} slots, expected {}",
                    slots.len(),
                    2 * b
                ));
            }
            let mut fwd_seen = vec![usize::MAX; b];
            let mut bwd_seen = vec![usize::MAX; b];
            let (mut last_f, mut last_b) = (None, None);
            for (pos, slot) in slots.iter().enumerate() {
                match *slot {
                    Slot::Forward(i) => {
                        if fwd_seen[i] != usize::MAX {
                            return Err(format!("stage {s}: forward {i} repeated"));
                        }
                        fwd_seen[i] = pos;
                        if let Some(prev) = last_f {
                            if i != prev + 1 {
                                return Err(format!("stage {s}: forward order broken at {i}"));
                            }
                        } else if i != 0 {
                            return Err(format!("stage {s}: first forward is {i}"));
                        }
                        last_f = Some(i);
                    }
                    Slot::Backward(i) => {
                        if bwd_seen[i] != usize::MAX {
                            return Err(format!("stage {s}: backward {i} repeated"));
                        }
                        bwd_seen[i] = pos;
                        if let Some(prev) = last_b {
                            if i != prev + 1 {
                                return Err(format!("stage {s}: backward order broken at {i}"));
                            }
                        } else if i != 0 {
                            return Err(format!("stage {s}: first backward is {i}"));
                        }
                        last_b = Some(i);
                        if fwd_seen[i] == usize::MAX {
                            return Err(format!("stage {s}: backward {i} before its forward"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Peak number of in-flight activations a stage must hold (forwards
    /// executed whose backwards have not yet run) — 1F1B's selling point
    /// over GPipe is that this is `O(S)`, not `O(B)`.
    pub fn peak_in_flight(&self, stage: usize) -> usize {
        let mut live = 0usize;
        let mut peak = 0;
        for slot in &self.timeline[stage] {
            match slot {
                Slot::Forward(_) => {
                    live += 1;
                    peak = peak.max(live);
                }
                Slot::Backward(_) => live -= 1,
            }
        }
        peak
    }

    /// Event-driven execution under per-stage forward/backward slot
    /// times, honouring both intra-stage order and cross-stage
    /// dependencies (forward `i` needs stage `s−1`'s forward `i`;
    /// backward `i` needs stage `s+1`'s backward `i`). Returns every
    /// slot's `(start, finish)` per stage plus the makespan — the
    /// timeline consumed by trace export and the Gantt example.
    pub fn simulate(&self, fwd: &[f64], bwd: &[f64]) -> (Vec<Vec<SlotSpan>>, f64) {
        let s_count = self.num_stages();
        assert_eq!(fwd.len(), s_count);
        assert_eq!(bwd.len(), s_count);
        let b = self.microbatches;
        let mut fwd_done = vec![vec![f64::NAN; b]; s_count];
        let mut bwd_done = vec![vec![f64::NAN; b]; s_count];
        // iterate until fixed point: process stages repeatedly because a
        // stage's backward depends on the *next* stage. 1F1B is acyclic in
        // (stage, slot) so S passes suffice; we iterate slot-by-slot with
        // a ready check instead for clarity.
        let mut cursor = vec![0usize; s_count]; // next slot index per stage
        let mut clock = vec![0f64; s_count]; // stage-local completion time
        let mut spans: Vec<Vec<SlotSpan>> = vec![Vec::with_capacity(2 * b); s_count];
        let total_slots: usize = 2 * b * s_count;
        let mut done = 0;
        let mut stalled_rounds = 0;
        while done < total_slots {
            let mut progressed = false;
            for s in 0..s_count {
                while cursor[s] < self.timeline[s].len() {
                    let slot = self.timeline[s][cursor[s]];
                    let ready_at = match slot {
                        Slot::Forward(i) => {
                            if s == 0 {
                                Some(0.0)
                            } else {
                                let t = fwd_done[s - 1][i];
                                if t.is_nan() {
                                    None
                                } else {
                                    Some(t)
                                }
                            }
                        }
                        Slot::Backward(i) => {
                            if s == s_count - 1 {
                                let t = fwd_done[s][i];
                                if t.is_nan() {
                                    None
                                } else {
                                    Some(t)
                                }
                            } else {
                                let t = bwd_done[s + 1][i];
                                if t.is_nan() {
                                    None
                                } else {
                                    Some(t)
                                }
                            }
                        }
                    };
                    let Some(ready) = ready_at else { break };
                    let start = clock[s].max(ready);
                    match slot {
                        Slot::Forward(i) => {
                            clock[s] = start + fwd[s];
                            fwd_done[s][i] = clock[s];
                        }
                        Slot::Backward(i) => {
                            clock[s] = start + bwd[s];
                            bwd_done[s][i] = clock[s];
                        }
                    }
                    spans[s].push(SlotSpan {
                        slot,
                        start,
                        finish: clock[s],
                    });
                    cursor[s] += 1;
                    done += 1;
                    progressed = true;
                }
            }
            if !progressed {
                stalled_rounds += 1;
                assert!(stalled_rounds < 2, "1F1B schedule deadlocked");
            }
        }
        let makespan = clock.iter().cloned().fold(0.0, f64::max);
        (spans, makespan)
    }

    /// Event-driven makespan (see [`Schedule::simulate`]).
    pub fn makespan(&self, fwd: &[f64], bwd: &[f64]) -> f64 {
        self.simulate(fwd, bwd).1
    }
}

/// One executed slot with its simulated start/finish times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSpan {
    /// The work item.
    pub slot: Slot,
    /// Start time (seconds).
    pub start: f64,
    /// Finish time (seconds).
    pub finish: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::pipeline_latency;
    use proptest::prelude::*;

    #[test]
    fn fig6_shape_four_stages_three_microbatches() {
        let sched = one_f_one_b(4, 3);
        sched.validate().unwrap();
        // stage 0 warms up with min(4,3)=3 forwards; stage 3 with 1
        assert_eq!(
            sched.timeline[3][..2],
            [Slot::Forward(0), Slot::Backward(0)]
        );
        assert_eq!(
            sched.timeline[0][..3],
            [Slot::Forward(0), Slot::Forward(1), Slot::Forward(2)]
        );
    }

    #[test]
    fn in_flight_is_bounded_by_depth_not_batches() {
        let sched = one_f_one_b(4, 64);
        sched.validate().unwrap();
        for s in 0..4 {
            assert_eq!(sched.peak_in_flight(s), 4 - s, "stage {s}");
        }
    }

    #[test]
    fn makespan_matches_eqn4_for_uniform_stages() {
        // with equal fwd+bwd per stage, 1F1B's makespan equals Eqn. 4 on
        // t = fwd + bwd
        let (s, b) = (4, 6);
        let sched = one_f_one_b(s, b);
        let fwd = vec![1.0; s];
        let bwd = vec![2.0; s];
        let mk = sched.makespan(&fwd, &bwd);
        let eqn4 = pipeline_latency(&vec![3.0; s], b);
        assert!((mk - eqn4).abs() < 1e-9, "1F1B {mk} vs Eqn.4 {eqn4}");
    }

    #[test]
    fn single_stage_serializes() {
        let sched = one_f_one_b(1, 5);
        sched.validate().unwrap();
        assert_eq!(sched.makespan(&[1.0], &[2.0]), 15.0);
    }

    #[test]
    fn gpipe_validates_but_hoards_activations() {
        let (s, b) = (4, 16);
        let gp = gpipe(s, b);
        gp.validate().unwrap();
        let fb = one_f_one_b(s, b);
        for st in 0..s {
            assert_eq!(gp.peak_in_flight(st), b, "GPipe holds all B");
            assert!(fb.peak_in_flight(st) <= s, "1F1B bounded by pipeline depth");
        }
    }

    #[test]
    fn gpipe_and_1f1b_have_equal_uniform_makespan() {
        // both schedules reach the Eqn. 4 optimum for uniform stage times
        let (s, b) = (3, 5);
        let fwd = vec![1.0; s];
        let bwd = vec![2.0; s];
        let m_gp = gpipe(s, b).makespan(&fwd, &bwd);
        let m_fb = one_f_one_b(s, b).makespan(&fwd, &bwd);
        assert!((m_gp - m_fb).abs() < 1e-9, "gpipe {m_gp} vs 1f1b {m_fb}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_schedules_validate(s in 1usize..8, b in 1usize..16) {
            let sched = one_f_one_b(s, b);
            prop_assert!(sched.validate().is_ok());
            // every stage ends with the last backward
            for row in &sched.timeline {
                prop_assert_eq!(*row.last().unwrap(), Slot::Backward(b - 1));
            }
        }

        #[test]
        fn prop_makespan_bounds(
            s in 1usize..6,
            b in 1usize..10,
            f in 0.1f64..2.0,
            w in 0.1f64..3.0,
        ) {
            let sched = one_f_one_b(s, b);
            let mk = sched.makespan(&vec![f; s], &vec![w; s]);
            let per_stage = (f + w) * b as f64;
            // the bottleneck stage's serialized work is a lower bound
            prop_assert!(mk >= per_stage - 1e-9);
            // and Eqn. 4 on t = f + w is exact for uniform stages
            let eqn4 = pipeline_latency(&vec![f + w; s], b);
            prop_assert!((mk - eqn4).abs() < 1e-9, "{mk} vs {eqn4}");
        }

        #[test]
        fn prop_peak_in_flight_is_depth(s in 1usize..8, b in 1usize..16) {
            let sched = one_f_one_b(s, b);
            for st in 0..s {
                prop_assert_eq!(sched.peak_in_flight(st), (s - st).min(b));
            }
        }
    }
}
