//! One module per paper table/figure. Every module exposes
//! `pub fn run(lab: &Lab) -> (String, Vec<Verdict>)` returning the
//! rendered report and a [`Verdict`] per paper claim it checks (`run_all`
//! prints the selected ones in paper order).
//!
//! Public by path: `run_all` and the smoke and golden tests call each
//! experiment as `experiments::fig2::run` and the like.

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
mod maps;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use std::fmt;

use crate::context::Lab;

/// One paper claim, checked: what the paper reports, what this run
/// measured, and whether the measurement bears the claim out. The
/// threshold behind `holds` is the paper's claim, not a fit to this world.
#[derive(Debug)]
pub struct Verdict {
    pub claim: &'static str,
    pub paper: &'static str,
    pub measured: String,
    pub holds: bool,
}

impl Verdict {
    /// The verdict as its entry in `results/verdicts.json`.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "claim": self.claim,
            "paper": self.paper,
            "measured": self.measured,
            "holds": self.holds,
        })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = if self.holds { "holds" } else { "VIOLATED" };
        write!(
            f,
            "verdict: {}: {word} (measured {}; paper {})",
            self.claim, self.measured, self.paper
        )
    }
}

/// An experiment id and the function that runs it and returns its report
/// and verdicts.
pub type Experiment = (&'static str, fn(&Lab) -> (String, Vec<Verdict>));

/// All experiments in paper order, with their ids.
pub fn all() -> Vec<Experiment> {
    vec![
        (
            "table1_datasets",
            table1::run as fn(&Lab) -> (String, Vec<Verdict>),
        ),
        ("table2_load_datasets", table2::run),
        ("table3_sites", table3::run),
        ("fig2_broot_maps", fig2::run),
        ("fig3_tangled_maps", fig3::run),
        ("table4_coverage", table4::run),
        ("table5_mappability", table5::run),
        ("table6_pct_lax", table6::run),
        ("fig4_load_maps", fig4::run),
        ("fig5_prepending", fig5::run),
        ("fig6_prepend_load", fig6::run),
        ("fig7_as_divisions", fig7::run),
        ("fig8_prefix_divisions", fig8::run),
        ("fig9_stability", fig9::run),
        ("table7_flip_ases", table7::run),
    ]
}
