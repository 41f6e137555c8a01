//! # crowdrl-bench
//!
//! Reproduction harnesses for every figure in the CrowdRL evaluation
//! (§VI-B), plus the `crowdrl-trace` analyzer for recorded traces.
//!
//! One binary per paper figure prints the same series the paper plots and
//! writes a CSV next to it (under `results/`):
//!
//! | binary | paper artifact | sweep |
//! |---|---|---|
//! | `fig4` | Fig. 4 — quality with the same budget | 7 dataset cases × 6 methods, Prec/Rec/F1 |
//! | `fig5` | Fig. 5 — scalability | sampling ratio ∈ {0.1..0.5} |
//! | `fig6` | Fig. 6 — varying \|W\| | \|W\| ∈ {3,5,7} |
//! | `fig7` | Fig. 7 — varying α | α ∈ {0.01,0.05,0.1} |
//! | `fig8` | Fig. 8 — ablation | M1 / M2 / M3 vs full CrowdRL |
//! | `ablation_explore` | design-choice ablation (DESIGN.md §5) | UCB1 vs ε-greedy |
//! | `all_figures` | everything above in sequence | |
//!
//! Dataset sizes and budgets follow the paper's *ratios* at three scales
//! (`CROWDRL_SCALE=quick|small|paper`, default `quick`); see EXPERIMENTS.md
//! for the mapping and the expected result shapes.

#![forbid(unsafe_code)]

pub mod figures;
pub mod scale;

pub use figures::{ablation_explore, fig4, fig5, fig6, fig7, fig8, FigureReport};
pub use scale::Scale;
