//! Discrete-event pipeline simulator.
//!
//! Simulates `S` stages × `B` micro-batches under the synchronous
//! pipeline dependence structure (micro-batch `j` on stage `i` needs
//! micro-batch `j` from stage `i−1` and the stage to be done with
//! micro-batch `j−1`), with optional inter-stage transfer times.
//!
//! With constant per-stage times and zero communication this reproduces
//! Eqn. 4 *exactly* (property-tested below), which is the paper's
//! justification for the white-box model; with non-negligible
//! communication it quantifies when the Eqn. 4 assumption breaks — the
//! stress test in `bench/eqn4_validation`.

/// Result of one pipeline simulation.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    /// Completion time of each (stage, micro-batch) pair, row-major
    /// `[stage][microbatch]`.
    pub finish: Vec<Vec<f64>>,
    /// End-to-end makespan (completion of the last micro-batch on the
    /// last stage).
    pub makespan: f64,
    /// Idle ("bubble") time summed over stages.
    pub bubble: f64,
}

/// Simulate a pipeline.
///
/// * `stage_times[i][j]` — processing time of micro-batch `j` on stage
///   `i` (each row must have `B` entries).
/// * `comm[i]` — transfer time from stage `i` to `i+1`
///   (`comm.len() == S − 1`; pass an empty slice for `S == 1`).
///
/// # Panics
/// Panics on inconsistent dimensions or an empty pipeline.
pub fn simulate_pipeline(stage_times: &[Vec<f64>], comm: &[f64]) -> PipelineSim {
    let s = stage_times.len();
    assert!(s >= 1, "pipeline needs stages");
    let b = stage_times[0].len();
    assert!(b >= 1, "pipeline needs micro-batches");
    assert!(
        stage_times.iter().all(|r| r.len() == b),
        "ragged stage_times"
    );
    assert_eq!(comm.len(), s - 1, "need S-1 inter-stage links");

    let mut finish = vec![vec![0.0f64; b]; s];
    for i in 0..s {
        for j in 0..b {
            let from_prev_stage = if i == 0 {
                0.0
            } else {
                finish[i - 1][j] + comm[i - 1]
            };
            let from_prev_batch = if j == 0 { 0.0 } else { finish[i][j - 1] };
            finish[i][j] = from_prev_stage.max(from_prev_batch) + stage_times[i][j];
        }
    }
    let makespan = finish[s - 1][b - 1];
    let busy: f64 = stage_times.iter().flatten().sum();
    let bubble = makespan * s as f64 - busy;
    PipelineSim {
        finish,
        makespan,
        bubble,
    }
}

/// Convenience: simulate with one constant time per stage (the Eqn. 4
/// setting).
pub fn simulate_uniform(stage_times: &[f64], microbatches: usize, comm: &[f64]) -> PipelineSim {
    let rows: Vec<Vec<f64>> = stage_times.iter().map(|&t| vec![t; microbatches]).collect();
    simulate_pipeline(&rows, comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_parallel::plan::pipeline_latency;
    use proptest::prelude::*;

    #[test]
    fn fig6_example() {
        // four stages, stage 2 the bottleneck, three micro-batches
        let t = [1.0, 3.0, 1.0, 1.0];
        let sim = simulate_uniform(&t, 3, &[0.0; 3]);
        assert_eq!(sim.makespan, pipeline_latency(&t, 3));
    }

    #[test]
    fn single_stage_serializes() {
        let sim = simulate_uniform(&[2.0], 5, &[]);
        assert_eq!(sim.makespan, 10.0);
        assert_eq!(sim.bubble, 0.0);
    }

    #[test]
    fn communication_extends_makespan() {
        let t = [1.0, 1.0, 1.0];
        let free = simulate_uniform(&t, 4, &[0.0, 0.0]);
        let taxed = simulate_uniform(&t, 4, &[0.5, 0.5]);
        assert!(taxed.makespan > free.makespan);
    }

    #[test]
    fn negligible_communication_matches_eqn4_closely() {
        // the paper's assumption: on high-bandwidth links comm ≈ 0 and
        // the formula holds to within the comm total
        let t = [0.010, 0.013, 0.011, 0.012];
        let comm = [1e-5, 1e-5, 1e-5];
        let sim = simulate_uniform(&t, 8, &comm);
        let formula = pipeline_latency(&t, 8);
        let rel = (sim.makespan - formula) / formula;
        assert!(rel >= 0.0, "comm can only add time");
        assert!(rel < 0.005, "relative gap {rel}");
    }

    #[test]
    fn per_batch_variation_supported() {
        let rows = vec![vec![1.0, 2.0], vec![1.0, 1.0]];
        let sim = simulate_pipeline(&rows, &[0.0]);
        // stage0: finishes at 1, 3; stage1: starts at 1 →2, then max(3,2)+1=4
        assert_eq!(sim.finish[0], vec![1.0, 3.0]);
        assert_eq!(sim.finish[1], vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_input_panics() {
        let rows = vec![vec![1.0, 2.0], vec![1.0]];
        let _ = simulate_pipeline(&rows, &[0.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_zero_comm_uniform_equals_eqn4(
            times in proptest::collection::vec(0.001f64..5.0, 1..8),
            b in 1usize..12,
        ) {
            let comm = vec![0.0; times.len() - 1];
            let sim = simulate_uniform(&times, b, &comm);
            let formula = pipeline_latency(&times, b);
            prop_assert!((sim.makespan - formula).abs() < 1e-9,
                "sim {} vs formula {}", sim.makespan, formula);
        }

        #[test]
        fn prop_makespan_lower_bounds(
            times in proptest::collection::vec(0.001f64..5.0, 1..8),
            b in 1usize..12,
            c in 0.0f64..0.5,
        ) {
            let comm = vec![c; times.len() - 1];
            let sim = simulate_uniform(&times, b, &comm);
            let sum: f64 = times.iter().sum();
            let max = times.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(sim.makespan >= sum - 1e-12);
            prop_assert!(sim.makespan >= b as f64 * max - 1e-12);
            prop_assert!(sim.bubble >= -1e-9);
        }

        #[test]
        fn prop_makespan_monotone_in_any_stage_time(
            times in proptest::collection::vec(0.001f64..5.0, 2..6),
            b in 1usize..10,
            which in 0usize..6,
        ) {
            let comm = vec![0.01; times.len() - 1];
            let base = simulate_uniform(&times, b, &comm).makespan;
            let mut slower = times.clone();
            let i = which % slower.len();
            slower[i] += 1.0;
            let after = simulate_uniform(&slower, b, &comm).makespan;
            prop_assert!(after > base);
        }
    }
}
