//! The reward signal (§III-B).
//!
//! The paper defines `r(t) = λ·r_φ(t) + η·r_cost(t)` where
//! `r_φ(t) = |objects labelled by φ this iteration| / |unlabelled objects|`
//! rewards classifier coverage (free labels = the budget stretches) and
//! `r_cost(t)` accounts for the monetary cost of the iteration. Since the
//! agent maximizes reward, the cost term must enter negatively; we
//! normalize the iteration's spend by the largest possible per-iteration
//! spend so both terms live on comparable scales:
//!
//! ```text
//! r(t) = λ · enriched_t / max(1, unlabelled_before_t)
//!      + μ · mean-confidence(labels inferred at t)
//!      − η · spend_t / (batch · k · max_cost)
//! ```
//!
//! The `μ` term is our one extension to the paper's reward: it pays the
//! agent for answers that produce *confident* inferred labels. In the
//! paper's setting the enrichment term alone suffices because their
//! classifier bootstraps quickly; on harder feature regimes the agent
//! otherwise sees only the cost penalty before enrichment ever fires and
//! collapses onto the cheapest annotators. Confidence is the quantity
//! expert answers move most, giving the DQN direct credit for routing hard
//! objects to experts. Set `μ = 0` to recover the paper's exact reward.

/// Inputs for one iteration's reward.
#[derive(Debug, Clone, Copy)]
pub struct RewardInputs {
    /// Objects auto-labelled by the classifier this iteration.
    pub enriched: usize,
    /// Unlabelled objects *before* this iteration's enrichment. (The
    /// asynchronous engine passes the count after its refresh's
    /// enrichment; DESIGN §8 records why that difference is kept.)
    pub unlabelled_before: usize,
    /// Budget units spent on annotators this iteration.
    pub spend: f64,
    /// Maximum possible spend per iteration (`batch · k · max_cost`).
    pub max_iter_spend: f64,
    /// Mean posterior confidence of the labels inferred this iteration,
    /// in `[0, 1]` (0 when nothing was inferred).
    pub mean_confidence: f64,
}

/// Compute `r(t)`.
pub fn iteration_reward(lambda: f64, mu: f64, eta: f64, inputs: RewardInputs) -> f64 {
    let r_phi = inputs.enriched as f64 / inputs.unlabelled_before.max(1) as f64;
    let r_cost = if inputs.max_iter_spend > 0.0 {
        inputs.spend / inputs.max_iter_spend
    } else {
        0.0
    };
    lambda * r_phi + mu * inputs.mean_confidence - eta * r_cost
}

/// Discounted long-term return `R(t) = Σ_τ γ^{τ-t} r(τ)` over a recorded
/// reward trace (Eq. 1) — reporting/diagnostics only; the DQN bootstraps
/// its own targets.
pub fn discounted_return(rewards: &[f64], gamma: f64) -> f64 {
    let mut acc = 0.0;
    for &r in rewards.iter().rev() {
        acc = r + gamma * acc;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> RewardInputs {
        RewardInputs {
            enriched: 0,
            unlabelled_before: 10,
            spend: 0.0,
            max_iter_spend: 10.0,
            mean_confidence: 0.0,
        }
    }

    #[test]
    fn reward_rewards_enrichment() {
        let r = iteration_reward(
            1.0,
            0.0,
            0.0,
            RewardInputs {
                enriched: 5,
                unlabelled_before: 20,
                ..inputs()
            },
        );
        assert!((r - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reward_penalizes_spend() {
        let no_spend = iteration_reward(1.0, 0.0, 0.5, inputs());
        let full_spend = iteration_reward(
            1.0,
            0.0,
            0.5,
            RewardInputs {
                spend: 10.0,
                ..inputs()
            },
        );
        assert_eq!(no_spend, 0.0);
        assert!((full_spend + 0.5).abs() < 1e-12);
    }

    #[test]
    fn reward_pays_for_confident_labels() {
        let vague = iteration_reward(
            1.0,
            0.5,
            0.0,
            RewardInputs {
                mean_confidence: 0.5,
                ..inputs()
            },
        );
        let confident = iteration_reward(
            1.0,
            0.5,
            0.0,
            RewardInputs {
                mean_confidence: 1.0,
                ..inputs()
            },
        );
        assert!(confident > vague);
        assert!((confident - 0.5).abs() < 1e-12);
        // mu = 0 recovers the paper's reward exactly.
        let paper = iteration_reward(
            1.0,
            0.0,
            0.0,
            RewardInputs {
                mean_confidence: 1.0,
                ..inputs()
            },
        );
        assert_eq!(paper, 0.0);
    }

    #[test]
    fn degenerate_denominators_are_safe() {
        let r = iteration_reward(
            1.0,
            0.0,
            1.0,
            RewardInputs {
                enriched: 0,
                unlabelled_before: 0,
                spend: 5.0,
                max_iter_spend: 0.0,
                mean_confidence: 0.0,
            },
        );
        assert!(r.is_finite());
        assert_eq!(r, 0.0);
    }

    #[test]
    fn discounted_return_matches_manual_sum() {
        let rewards = [1.0, 0.5, 0.25];
        let gamma = 0.9;
        let want = 1.0 + 0.9 * 0.5 + 0.81 * 0.25;
        assert!((discounted_return(&rewards, gamma) - want).abs() < 1e-12);
        assert_eq!(discounted_return(&[], gamma), 0.0);
    }

    #[test]
    fn gamma_one_sums_rewards() {
        let rewards = [0.1, 0.2, 0.3];
        assert!((discounted_return(&rewards, 1.0) - 0.6).abs() < 1e-12);
    }
}
