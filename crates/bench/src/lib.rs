//! # jc-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation (§6), plus
//! `perfsuite`, which times the kernel and transport rows against a
//! committed `BENCH_*.json` baseline. The experiment index:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_lab_scenarios` | the §6.2 runtimes (353/89/84/62.4 s/iter) |
//! | `fig6_gas_expulsion` | the four evolution stages of Fig 6 |
//! | `fig7_bridge_trace` | the Fig 7 calling sequence |
//! | `fig9_sc11_demo` | the SC11 transatlantic run |
//! | `fig10_overlay_view` | the IbisDeploy resource/job/overlay panels |
//! | `fig11_traffic_view` | the traffic visualization (IPL vs MPI) |
//! | `loopback_bandwidth` | the §5 ">8 Gbit/s loopback" claim |

#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub)]

/// Render a simple two-column table.
pub fn kv_table(title: &str, rows: &[(String, String)]) -> String {
    let mut out = format!("{title}\n");
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(8);
    for (k, v) in rows {
        out.push_str(&format!("  {k:<w$}  {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn kv_table_formats() {
        let t = super::kv_table("T", &[("a".into(), "1".into()), ("bb".into(), "2".into())]);
        assert!(t.contains("a   1") || t.contains("a  1"), "{t}");
    }
}
