//! The virtual crowd: sampling what an annotator does with a question.
//!
//! Everything random about one assignment — whether the annotator drops
//! it, how long they take, and what label they give — is drawn from a
//! dedicated RNG stream derived from `(sampling_seed, assignment_id)`.
//! The draw therefore depends only on the assignment id, never on which
//! thread performs it or in what order: [`sample_outcomes`] can fan a
//! batch over however many pool threads the run allows and still produce
//! the exact trace of the single-threaded mode.

use crowdrl_sim::{AnnotatorDynamics, AnnotatorPool};
use crowdrl_types::rng::{derive_seed, seeded};
use crowdrl_types::{AnnotatorId, AssignmentId, ClassId, ObjectId, SimTime};
use rand::Rng;

/// A sampling job handed to the virtual crowd.
#[derive(Debug, Clone, Copy)]
pub struct SampleJob {
    /// The ledger id whose stream to use.
    pub id: AssignmentId,
    /// The object asked about.
    pub object: ObjectId,
    /// The annotator asked.
    pub annotator: AnnotatorId,
    /// The object's true class (simulation-only knowledge, like
    /// [`Platform`](crowdrl_sim::Platform)'s).
    pub truth: ClassId,
}

/// What the annotator did with the question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledOutcome {
    /// The job's ledger id.
    pub id: AssignmentId,
    /// `Some((label, latency))` if they answer, `None` if they silently
    /// drop the task (only the timeout will resolve it).
    pub response: Option<(ClassId, SimTime)>,
}

/// Assignments per pool chunk when a batch is sampled.
const SAMPLE_CHUNK: usize = 64;

/// Sample every job's outcome, fanned out over the `crowdrl_linalg` pool
/// in fixed chunks and returned in job order. Both the single-project pump
/// and the multi-tenant service sample through here.
pub fn sample_outcomes(
    sampling_seed: u64,
    jobs: &[SampleJob],
    pool: &AnnotatorPool,
    dynamics: &[AnnotatorDynamics],
) -> Vec<SampledOutcome> {
    let _kind = crowdrl_linalg::pool::task_kind("sample");
    crowdrl_linalg::pool::map_chunks(jobs.len(), SAMPLE_CHUNK, |range| {
        jobs[range]
            .iter()
            .map(|&job| sample_outcome(sampling_seed, job, pool, dynamics))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Sample one assignment's outcome from its derived stream.
pub fn sample_outcome(
    sampling_seed: u64,
    job: SampleJob,
    pool: &AnnotatorPool,
    dynamics: &[AnnotatorDynamics],
) -> SampledOutcome {
    let mut rng = seeded(derive_seed(sampling_seed, job.id.0));
    let dyn_a = &dynamics[job.annotator.index()];
    // Fixed draw order (drop, latency, label) so outcomes are a pure
    // function of the job — do not reorder.
    let dropped = rng.random::<f64>() < dyn_a.drop_rate;
    let latency = dyn_a.latency.sample(&mut rng);
    let label = pool.sample_answer(job.annotator, job.truth, &mut rng);
    SampledOutcome {
        id: job.id,
        response: if dropped {
            None
        } else {
            Some((label, latency))
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_sim::{DynamicsSpec, PoolSpec};

    #[test]
    fn outcomes_are_a_pure_function_of_the_job() {
        let mut rng = seeded(1);
        let pool = PoolSpec::new(3, 1).generate(3, &mut rng).unwrap();
        let dynamics = DynamicsSpec::default().generate(&pool, &mut rng).unwrap();
        let job = SampleJob {
            id: AssignmentId(17),
            object: ObjectId(4),
            annotator: AnnotatorId(2),
            truth: ClassId(1),
        };
        let a = sample_outcome(99, job, &pool, &dynamics);
        let b = sample_outcome(99, job, &pool, &dynamics);
        assert_eq!(a, b);
        // Different assignment ids draw from different streams.
        let c = sample_outcome(
            99,
            SampleJob {
                id: AssignmentId(18),
                ..job
            },
            &pool,
            &dynamics,
        );
        assert!(a.response != c.response || a.id != c.id);
    }

    #[test]
    fn a_full_drop_rate_always_drops() {
        let mut rng = seeded(2);
        let pool = PoolSpec::new(1, 0).generate(2, &mut rng).unwrap();
        let mut dynamics = DynamicsSpec::default().generate(&pool, &mut rng).unwrap();
        dynamics[0].drop_rate = 1.0;
        for i in 0..20 {
            let job = SampleJob {
                id: AssignmentId(i),
                object: ObjectId(0),
                annotator: AnnotatorId(0),
                truth: ClassId(0),
            };
            assert_eq!(sample_outcome(3, job, &pool, &dynamics).response, None);
        }
    }
}
