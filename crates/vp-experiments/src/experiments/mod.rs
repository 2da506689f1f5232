//! One module per paper table/figure. Every module exposes
//! `pub fn run(lab: &Lab) -> String` returning the rendered report
//! (`run_all` prints the selected ones in paper order).

pub mod fig2;
pub mod maps;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use crate::context::Lab;

/// An experiment id and the function that runs it and returns its report.
pub type Experiment = (&'static str, fn(&Lab) -> String);

/// All experiments in paper order, with their ids.
pub fn all() -> Vec<Experiment> {
    vec![
        ("table1_datasets", table1::run as fn(&Lab) -> String),
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
