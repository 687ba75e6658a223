//! Every metric the benchmark prints: name, unit, direction, and for the
//! end-to-end ones the bound by which the median may worsen.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Which clock the number is read from.
    pub clock: &'static str,
    /// Share of the reference median by which the metric may worsen before
    /// it is a regression: the `bound` of `BENCHMARK.json`, which has to
    /// hold between runs with different seeds. `None`: no such bound can
    /// hold (the value is 0, or moves many times over between seeds), so the
    /// driver gets the metric beside the per-layer ones, which carry none.
    pub bound: Option<f64>,
}

impl EndToEnd {
    /// How far two suites of the same code at the same seed may differ
    /// (`--agree`): virtual time and the failure ratio repeat exactly.
    pub fn agree_bound(&self) -> f64 {
        match self.bound {
            Some(bound) if self.clock != "virtual" => bound,
            _ => 0.0,
        }
    }
}

const fn e(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    bound: Option<f64>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        bound,
    }
}

/// The nine end-to-end metrics, reported for every workload. The bounds are
/// about three times the widest spread ten seeds showed on any workload
/// over an hour with quiet and noisy phases, and no more than the benchmark
/// driver's ceiling of 25 % (README, "End-to-end metrics"). Host seconds
/// are calibrated (`calib.rs`); the ratio is of raw seconds.
pub const END_TO_END: [EndToEnd; 9] = [
    e("host_pass_s", "s", "host", Some(0.25)),
    e("host_fail_run_s", "s", "host", Some(0.25)),
    e("host_resilience_ratio", "ratio", "host", Some(0.25)),
    e("virtual_ckpt_overhead_s", "s", "virtual", Some(0.05)),
    e("virtual_failure_cost_s", "s", "virtual", None),
    e("virtual_wall_fail_s", "s", "virtual", Some(0.02)),
    e("peak_rss_mib", "MiB", "-", Some(0.15)),
    e("setup_s", "s", "host", Some(0.25)),
    e("run_fail_ratio", "ratio", "-", None),
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The 57 per-layer metrics, grouped by layer (the name's prefix).
pub const PER_LAYER: [PerLayer; 57] = [
    m("resilience.host_ref_run_s", "s", Lower),
    m("resilience.host_nf_run_s", "s", Lower),
    m("resilience.host_ckpt_overhead_s", "s", Lower),
    m("resilience.host_recovery_s", "s", Lower),
    m("resilience.host_alt_nf_run_s", "s", Lower),
    m("resilience.host_alt_fail_run_s", "s", Lower),
    m("resilience.virtual_alt_failure_cost_s", "s", Lower),
    m("resilience.repairs", "count", Lower),
    m("resilience.relaunches", "count", Lower),
    m("resilience.iterations_recomputed", "count", Lower),
    m("apps.host_ns_per_work_unit", "ns", Lower),
    m("apps.virtual_app_mpi_ref_ms", "ms", Lower),
    m("apps.virtual_app_mpi_nf_ms", "ms", Lower),
    m("kokkos.views_captured", "count", Lower),
    m("kokkos.capture_bytes", "B", Lower),
    m("simmpi.launch_us_per_rank", "us", Lower),
    m("simmpi.allreduce_us_per_rank", "us", Lower),
    m("simmpi.sendrecv_us_per_msg", "us", Lower),
    m("simmpi.sendrecv_host_mib_s", "MiB/s", Higher),
    m("simmpi.pingpong_handoff_us", "us", Lower),
    m("simmpi.mpi_calls", "count", Lower),
    m("simmpi.mpi_bytes", "B", Lower),
    m("simmpi.voluntary_ctx_switches", "count", Lower),
    m("cluster.governor_reserve_ns", "ns", Lower),
    m("cluster.pfs_write_ns", "ns", Lower),
    m("cluster.scratch_write_ns", "ns", Lower),
    m("veloc.checkpoint_host_ms", "ms", Lower),
    m("veloc.checkpoint_host_mib_s", "MiB/s", Higher),
    m("veloc.restart_host_ms", "ms", Lower),
    m("veloc.restart_read_ns", "ns", Lower),
    m("veloc.restart_verify_ns", "ns", Lower),
    m("veloc.restart_apply_ns", "ns", Lower),
    m("veloc.crc_host_mib_s", "MiB/s", Higher),
    m("veloc.bytes_protected", "B", Lower),
    m("veloc.bytes_written", "B", Lower),
    m("veloc.delta_frames", "count", Higher),
    m("veloc.flushes_done", "count", Lower),
    m("veloc.virtual_checkpoint_fn_ms", "ms", Lower),
    m("veloc.virtual_data_recovery_ms", "ms", Lower),
    m("kokkos-resilience.region_first_call_us", "us", Lower),
    m("kokkos-resilience.region_steady_call_us", "us", Lower),
    m("kokkos-resilience.regions_entered", "count", Lower),
    m("kokkos-resilience.commits", "count", Lower),
    m("fenix.virtual_detect_us", "us", Lower),
    m("fenix.virtual_repair_us", "us", Lower),
    m("fenix.virtual_restore_us", "us", Lower),
    m("fenix.virtual_recompute_ms", "ms", Lower),
    m("fenix.host_recovery_us_per_rank", "us", Lower),
    m("fenix.agree_rounds", "count", Lower),
    m("fenix.revokes", "count", Lower),
    m("redstore.encode_host_mib_s", "MiB/s", Higher),
    m("redstore.reconstruct_host_mib_s", "MiB/s", Higher),
    m("redstore.exchange_bytes", "B", Lower),
    m("redstore.store_commits", "count", Lower),
    m("telemetry.overhead_ratio", "ratio", Lower),
    m("telemetry.events_pushed", "count", Lower),
    m("telemetry.events_dropped", "count", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|p| p.name == name)
}

/// Unit of any metric the benchmark prints.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|e| e.unit)
        .or_else(|| per_layer(name).map(|p| p.unit))
}

/// Per-layer values collected by name; setting a name that is not in
/// [`PER_LAYER`] is a bug in the benchmark.
#[derive(Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    pub fn set(&mut self, name: &str, value: f64) {
        let known = per_layer(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        assert!(
            self.get(known.name).is_none(),
            "per-layer metric {name} set twice"
        );
        self.0.push((known.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The source text of each object of the array stored under `key` in
    /// `BENCHMARK.json` (a flat scan: no value holds a brace or a bracket).
    fn objects_under<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let at = json.find(&format!("\"{key}\"")).expect(key);
        let open = at + json[at..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split('{')
            .skip(1)
            .map(|o| o.split('}').next().expect("object end"))
            .collect()
    }

    /// The value of `field` in one object's text, without its quotes.
    fn field<'a>(object: &'a str, field: &str) -> &'a str {
        let key = format!("\"{field}\":");
        let at = object
            .find(&key)
            .unwrap_or_else(|| panic!("{field} in {object}"));
        let rest = object[at + key.len()..].trim_start();
        match rest.strip_prefix('"') {
            Some(quoted) => quoted.split('"').next().expect("closing quote"),
            None => rest.split(',').next().expect("value").trim(),
        }
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert_eq!(seen.len(), 9 + 57);
    }

    #[test]
    fn per_layer_names_carry_their_layer() {
        let layers = [
            "resilience",
            "apps",
            "kokkos",
            "simmpi",
            "cluster",
            "veloc",
            "kokkos-resilience",
            "fenix",
            "redstore",
            "telemetry",
        ];
        for p in &PER_LAYER {
            let layer = p.name.split('.').next().unwrap();
            assert!(layers.contains(&layer), "{}", p.name);
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_runner_prints() {
        let json = include_str!("../../BENCHMARK.json");
        // End-to-end: the bounded metrics, with the bounds of this file.
        let listed: Vec<_> = objects_under(json, "end_to_end")
            .into_iter()
            .map(|o| {
                let bound: f64 = field(o, "bound").parse().expect("bound");
                (
                    field(o, "name"),
                    field(o, "unit"),
                    field(o, "better"),
                    bound,
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .filter_map(|m| m.bound.map(|b| (m.name, m.unit, "lower", b)))
            .collect();
        assert_eq!(listed, want);
        assert!(want.iter().all(|&(_, _, _, b)| b > 0.0 && b <= 0.25));
        // Per layer: every per-layer metric, then the unbounded end-to-end ones.
        let listed: Vec<_> = objects_under(json, "per_layer")
            .into_iter()
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|p| (p.name, p.unit, p.better.name()))
            .chain(
                END_TO_END
                    .iter()
                    .filter(|m| m.bound.is_none())
                    .map(|m| (m.name, m.unit, "lower")),
            )
            .collect();
        assert_eq!(listed, want);
        let listed: Vec<_> = objects_under(json, "workloads")
            .into_iter()
            .map(|o| (field(o, "name"), field(o, "why")))
            .collect();
        let want: Vec<_> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, want);
    }

    #[test]
    fn agreement_at_one_seed_is_exact_for_virtual_time_and_the_failure_ratio() {
        for m in &END_TO_END {
            let exact = m.clock == "virtual" || m.bound.is_none();
            assert_eq!(m.agree_bound() == 0.0, exact, "{}", m.name);
        }
    }

    #[test]
    fn layer_values_hold_what_was_set() {
        let mut v = LayerValues::default();
        assert_eq!(v.get("fenix.revokes"), None);
        v.set("fenix.revokes", 3.0);
        assert_eq!(v.get("fenix.revokes"), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn unknown_names_are_rejected() {
        LayerValues::default().set("fenix.nonsense", 0.0);
    }
}
