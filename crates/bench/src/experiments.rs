//! The experiment implementations.

use admission::{resolve, trace_ops, AdmissionEngine, AdmissionQuery};
use ethernet::Fabric;
use milstd1553::schedule::Scheduler;
use milstd1553::sim::BusSimulation;
use netcalc::EnvelopeModel;
use netsim::{SimConfig, SimReport, Simulator};
use rtswitch_core::report::to_json;
use rtswitch_core::{
    analyze, analyze_multi_hop_with, compare_with_1553, AnalysisReport, Approach,
    BaselineComparison, NetworkConfig, ValidationReport,
};
use serde::Serialize;
use shaping::TrafficClass;
use units::{DataRate, DataSize, Duration};
use workload::case_study::{case_study, case_study_with, CaseStudyConfig};
use workload::map1553::{map_workload, MappingConfig};
use workload::{Arrival, StationId, Workload};

/// The reduced case-study configuration used whenever the MIL-STD-1553B bus
/// is part of the experiment (the full case study exceeds the 1 Mbps bus
/// capacity — itself one of the findings recorded by E2).
pub fn bus_sized_case_study() -> Workload {
    case_study_with(CaseStudyConfig {
        subsystems: 3,
        with_command_traffic: false,
    })
}

// ---------------------------------------------------------------- E1

/// Result of experiment E1 (Figure 1).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Figure1 {
    /// The FCFS-approach analysis.
    pub fcfs: AnalysisReport,
    /// The strict-priority-approach analysis.
    pub priority: AnalysisReport,
}

/// One row of the Figure-1 style class table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Figure1Row {
    /// Traffic class.
    pub class: TrafficClass,
    /// Worst FCFS bound of the class, milliseconds.
    pub fcfs_bound_ms: f64,
    /// Worst strict-priority bound of the class, milliseconds.
    pub priority_bound_ms: f64,
    /// Tightest deadline of the class, milliseconds.
    pub deadline_ms: f64,
    /// Whether FCFS meets every deadline of the class.
    pub fcfs_ok: bool,
    /// Whether strict priority meets every deadline of the class.
    pub priority_ok: bool,
}

/// E1 / Figure 1: delay bounds of the two approaches on the case-study
/// traffic at 10 Mbps.
pub fn figure1(workload: &Workload, config: &NetworkConfig) -> Figure1 {
    let fcfs = analyze(workload, config, Approach::Fcfs)
        .expect("the case study is stable at the configured rate");
    let priority = analyze(workload, config, Approach::StrictPriority)
        .expect("the case study is stable at the configured rate");
    Figure1 { fcfs, priority }
}

impl Figure1 {
    /// The per-class rows of the figure.
    pub fn rows(&self) -> Vec<Figure1Row> {
        self.fcfs
            .class_summaries()
            .into_iter()
            .zip(self.priority.class_summaries())
            .map(|(f, p)| Figure1Row {
                class: f.class,
                fcfs_bound_ms: f.worst_bound.as_millis_f64(),
                priority_bound_ms: p.worst_bound.as_millis_f64(),
                deadline_ms: f
                    .tightest_deadline
                    .map(|d| d.as_millis_f64())
                    .unwrap_or(f64::NAN),
                fcfs_ok: f.satisfied(),
                priority_ok: p.satisfied(),
            })
            .collect()
    }

    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "E1 / Figure 1 — delay bounds, C = {}, t_techno = {}\n",
            self.fcfs.config.link_rate, self.fcfs.config.ttechno
        ));
        out.push_str(&format!(
            "{:<16} {:>12} {:>14} {:>12} {:>9} {:>9}\n",
            "class", "FCFS bound", "priority bound", "deadline", "FCFS", "priority"
        ));
        for row in self.rows() {
            out.push_str(&format!(
                "{:<16} {:>9.3} ms {:>11.3} ms {:>9.3} ms {:>9} {:>9}\n",
                row.class.to_string(),
                row.fcfs_bound_ms,
                row.priority_bound_ms,
                row.deadline_ms,
                if row.fcfs_ok { "OK" } else { "VIOLATED" },
                if row.priority_ok { "OK" } else { "VIOLATED" },
            ));
        }
        out
    }
}

// ---------------------------------------------------------------- E2

/// Result of experiment E2 (1553B baseline).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Baseline1553 {
    /// The Ethernet-vs-bus comparison on the bus-sized workload.
    pub comparison: BaselineComparison,
    /// Whether the *full* case study fits on the bus at all.
    pub full_case_study_schedulable: bool,
    /// Bus utilization of the bus-sized workload schedule.
    pub bus_utilization: f64,
}

/// E2: the MIL-STD-1553B baseline — worst-case response times of the polled
/// bus against the prioritized switched-Ethernet bounds.
pub fn baseline_1553() -> Baseline1553 {
    let bus_workload = bus_sized_case_study();
    let ethernet = analyze(
        &bus_workload,
        &NetworkConfig::paper_default(),
        Approach::StrictPriority,
    )
    .expect("bus-sized case study is stable on Ethernet");
    let comparison =
        compare_with_1553(&bus_workload, &ethernet).expect("bus-sized case study is schedulable");

    // Is the full case study even schedulable on the bus?
    let full = case_study();
    let full_case_study_schedulable = map_workload(&full, MappingConfig::default())
        .ok()
        .and_then(|reqs| Scheduler::paper_default().schedule(reqs).ok())
        .is_some();

    Baseline1553 {
        bus_utilization: comparison.bus_utilization,
        comparison,
        full_case_study_schedulable,
    }
}

// ---------------------------------------------------------------- E3

/// One row of the rate sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RateSweepRow {
    /// Link rate.
    pub rate: DataRate,
    /// Worst FCFS bound of the urgent class, milliseconds.
    pub fcfs_urgent_ms: f64,
    /// Worst strict-priority bound of the urgent class, milliseconds.
    pub priority_urgent_ms: f64,
    /// Whether FCFS meets the 3 ms urgent deadline at this rate.
    pub fcfs_urgent_ok: bool,
    /// Whether strict priority meets the 3 ms urgent deadline at this rate.
    pub priority_urgent_ok: bool,
    /// Whether FCFS meets every deadline at this rate.
    pub fcfs_all_ok: bool,
    /// Whether strict priority meets every deadline at this rate.
    pub priority_all_ok: bool,
}

/// E3: sweep the link rate to test the paper's claim that a higher rate
/// alone is not sufficient — priorities are needed.
pub fn rate_sweep(workload: &Workload, rates: &[DataRate]) -> Vec<RateSweepRow> {
    rates
        .iter()
        .map(|&rate| {
            let config = NetworkConfig::paper_default().with_link_rate(rate);
            let fcfs = analyze(workload, &config, Approach::Fcfs)
                .expect("case study is stable at every swept rate");
            let priority = analyze(workload, &config, Approach::StrictPriority)
                .expect("case study is stable at every swept rate");
            let urgent_deadline = Duration::from_millis(3);
            let fcfs_urgent = fcfs
                .worst_bound_of_class(TrafficClass::UrgentSporadic)
                .unwrap_or(Duration::ZERO);
            let priority_urgent = priority
                .worst_bound_of_class(TrafficClass::UrgentSporadic)
                .unwrap_or(Duration::ZERO);
            RateSweepRow {
                rate,
                fcfs_urgent_ms: fcfs_urgent.as_millis_f64(),
                priority_urgent_ms: priority_urgent.as_millis_f64(),
                fcfs_urgent_ok: fcfs_urgent <= urgent_deadline,
                priority_urgent_ok: priority_urgent <= urgent_deadline,
                fcfs_all_ok: fcfs.all_deadlines_met(),
                priority_all_ok: priority.all_deadlines_met(),
            }
        })
        .collect()
}

/// Renders the rate-sweep rows as a text table.
pub fn render_rate_sweep(rows: &[RateSweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E3 — link-rate sweep (urgent deadline 3 ms)\n{:<12} {:>14} {:>9} {:>18} {:>9} {:>10} {:>13}\n",
        "rate", "FCFS urgent", "meets?", "priority urgent", "meets?", "FCFS all", "priority all"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:>11.3} ms {:>9} {:>15.3} ms {:>9} {:>10} {:>13}\n",
            row.rate.to_string(),
            row.fcfs_urgent_ms,
            if row.fcfs_urgent_ok { "yes" } else { "no" },
            row.priority_urgent_ms,
            if row.priority_urgent_ok { "yes" } else { "no" },
            if row.fcfs_all_ok { "yes" } else { "no" },
            if row.priority_all_ok { "yes" } else { "no" },
        ));
    }
    out
}

// ---------------------------------------------------------------- E4

/// Result of experiment E4 (bounds vs simulation) for one approach.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimValidation {
    /// Which approach was validated.
    pub approach: Approach,
    /// Per-seed validation reports.
    pub runs: Vec<ValidationReport>,
}

impl SimValidation {
    /// `true` when every run respected every bound.
    pub fn all_sound(&self) -> bool {
        self.runs.iter().all(|r| r.all_sound())
    }

    /// The mean bound tightness across runs.
    pub fn mean_tightness(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.mean_tightness()).sum::<f64>() / self.runs.len() as f64
    }
}

/// E4: simulate the analysed configuration for several seeds and check that
/// every observed worst-case delay stays below its analytic bound.
pub fn sim_validation(
    workload: &Workload,
    config: &NetworkConfig,
    approach: Approach,
    horizon: Duration,
    seeds: &[u64],
) -> SimValidation {
    let report = analyze(workload, config, approach).expect("workload is stable");
    let runs = seeds
        .iter()
        .map(|&seed| rtswitch_core::validate_against_simulation(workload, &report, horizon, seed))
        .collect();
    SimValidation { approach, runs }
}

// ---------------------------------------------------------------- E5

/// One row of the jitter comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JitterRow {
    /// Traffic class.
    pub class: TrafficClass,
    /// Worst observed jitter under FCFS switched Ethernet, milliseconds.
    pub fcfs_jitter_ms: f64,
    /// Worst observed jitter under prioritized switched Ethernet,
    /// milliseconds.
    pub priority_jitter_ms: f64,
    /// Worst observed jitter on the 1553B bus, milliseconds (`NaN` for
    /// classes the bus workload does not carry).
    pub bus_jitter_ms: f64,
}

/// E5: observed jitter per traffic class for the three architectures, on
/// the bus-sized workload (so the 1553B column exists).
pub fn jitter(horizon: Duration, seed: u64) -> Vec<JitterRow> {
    let workload = bus_sized_case_study();

    let priority_report = Simulator::new(
        workload.clone(),
        SimConfig::paper_default()
            .with_horizon(horizon)
            .with_seed(seed),
    )
    .run();
    let fcfs_report = Simulator::new(
        workload.clone(),
        SimConfig::paper_default()
            .with_fcfs()
            .with_horizon(horizon)
            .with_seed(seed),
    )
    .run();

    // 1553B: map, schedule, replay.
    let requirements = map_workload(&workload, MappingConfig::default())
        .expect("bus-sized case study maps onto the bus");
    let schedule = Scheduler::paper_default()
        .schedule(requirements)
        .expect("bus-sized case study is schedulable");
    let major_frames = horizon
        .div_duration_ceil(Duration::from_millis(160))
        .unwrap_or(1)
        .max(1);
    let bus_stats = BusSimulation::new(schedule, major_frames, seed).run();

    TrafficClass::ALL
        .iter()
        .map(|&class| {
            // Worst observed bus jitter over the messages of this class
            // (match by workload message name prefix, chunks included).
            let class_names: Vec<&str> = workload
                .messages
                .iter()
                .filter(|m| m.traffic_class() == class)
                .map(|m| m.name.as_str())
                .collect();
            let bus_jitter = bus_stats
                .iter()
                .filter(|s| {
                    class_names
                        .iter()
                        .any(|n| s.label == *n || s.label.starts_with(&format!("{n}#")))
                })
                .map(|s| s.jitter)
                .fold(Duration::ZERO, Duration::max);
            JitterRow {
                class,
                fcfs_jitter_ms: fcfs_report.worst_jitter_of_class(class).as_millis_f64(),
                priority_jitter_ms: priority_report.worst_jitter_of_class(class).as_millis_f64(),
                bus_jitter_ms: if class_names.is_empty() {
                    f64::NAN
                } else {
                    bus_jitter.as_millis_f64()
                },
            }
        })
        .collect()
}

/// Renders the jitter rows as a text table.
pub fn render_jitter(rows: &[JitterRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E5 — observed jitter per class\n{:<16} {:>14} {:>18} {:>14}\n",
        "class", "FCFS Ethernet", "priority Ethernet", "1553B bus"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>11.3} ms {:>15.3} ms {:>11.3} ms\n",
            row.class.to_string(),
            row.fcfs_jitter_ms,
            row.priority_jitter_ms,
            row.bus_jitter_ms
        ));
    }
    out
}

// ---------------------------------------------------------------- E6

/// Result of the shaping ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShapingAblation {
    /// Run with the paper's source shapers enabled.
    pub shaped: SimReport,
    /// Run with the shapers bypassed.
    pub unshaped: SimReport,
}

impl ShapingAblation {
    /// Frames lost at the switch without shaping.
    pub fn unshaped_losses(&self) -> u64 {
        self.unshaped.total_dropped
    }

    /// Frames lost at the switch with shaping.
    pub fn shaped_losses(&self) -> u64 {
        self.shaped.total_dropped
    }

    /// Renders the comparison as a text table.
    pub fn render(&self) -> String {
        format!(
            "E6 — shaping ablation\n\
             {:<28} {:>12} {:>12}\n\
             {:<28} {:>12} {:>12}\n\
             {:<28} {:>12} {:>12}\n\
             {:<28} {:>9.3} ms {:>9.3} ms\n",
            "metric",
            "shaped",
            "unshaped",
            "frames dropped",
            self.shaped.total_dropped,
            self.unshaped.total_dropped,
            "peak switch backlog (bytes)",
            self.shaped.peak_switch_backlog().bytes(),
            self.unshaped.peak_switch_backlog().bytes(),
            "worst urgent delay",
            self.shaped
                .worst_delay_of_class(TrafficClass::UrgentSporadic)
                .as_millis_f64(),
            self.unshaped
                .worst_delay_of_class(TrafficClass::UrgentSporadic)
                .as_millis_f64(),
        )
    }
}

/// E6: the effect of the source shapers when background stations misbehave
/// (dump `burst_factor` frames at once) and the switch buffers are bounded.
pub fn shaping_ablation(
    burst_factor: u32,
    switch_buffer: DataSize,
    horizon: Duration,
    seed: u64,
) -> ShapingAblation {
    let workload = case_study();
    let base = SimConfig::paper_default()
        .with_horizon(horizon)
        .with_seed(seed)
        .with_background_burst(burst_factor)
        .with_switch_buffer(switch_buffer);
    let shaped = Simulator::new(workload.clone(), base).run();
    let unshaped = Simulator::new(workload, base.without_shaping()).run();
    ShapingAblation { shaped, unshaped }
}

// ---------------------------------------------------------------- E7

/// One row of the priority-level ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LevelAblationRow {
    /// Number of strict-priority levels configured.
    pub levels: usize,
    /// Worst urgent-class bound, milliseconds.
    pub urgent_ms: f64,
    /// Worst periodic-class bound, milliseconds.
    pub periodic_ms: f64,
    /// Worst background-class bound, milliseconds.
    pub background_ms: f64,
    /// Whether every deadline is met with this many levels.
    pub all_ok: bool,
}

/// E7 (ablation): how many priority levels are actually needed?  With one
/// level the scheme degenerates to FCFS; the paper chose four.  This sweeps
/// 1, 2, 3, 4 and 8 levels (classes beyond the configured count collapse
/// into the lowest queue).
pub fn level_ablation(workload: &Workload) -> Vec<LevelAblationRow> {
    [1usize, 2, 3, 4, 8]
        .iter()
        .map(|&levels| {
            let config = NetworkConfig {
                priority_levels: levels,
                ..NetworkConfig::paper_default()
            };
            let report = analyze(workload, &config, Approach::StrictPriority)
                .expect("case study is stable at 10 Mbps");
            LevelAblationRow {
                levels,
                urgent_ms: report
                    .worst_bound_of_class(TrafficClass::UrgentSporadic)
                    .unwrap_or(Duration::ZERO)
                    .as_millis_f64(),
                periodic_ms: report
                    .worst_bound_of_class(TrafficClass::Periodic)
                    .unwrap_or(Duration::ZERO)
                    .as_millis_f64(),
                background_ms: report
                    .worst_bound_of_class(TrafficClass::Background)
                    .unwrap_or(Duration::ZERO)
                    .as_millis_f64(),
                all_ok: report.all_deadlines_met(),
            }
        })
        .collect()
}

/// Renders the level-ablation rows as a text table.
pub fn render_level_ablation(rows: &[LevelAblationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E7 — priority-level ablation (strict priority, C = 10 Mbps)\n{:<8} {:>12} {:>14} {:>16} {:>10}\n",
        "levels", "P0 urgent", "P1 periodic", "P3 background", "all met?"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<8} {:>9.3} ms {:>11.3} ms {:>13.3} ms {:>10}\n",
            row.levels,
            row.urgent_ms,
            row.periodic_ms,
            row.background_ms,
            if row.all_ok { "yes" } else { "no" },
        ));
    }
    out
}

// ---------------------------------------------------------------- E8

/// E8: a scenario-sweep campaign — mass validation of the bounds across
/// hundreds of randomized scenarios (see the [`campaign`] crate).  Returns
/// the full campaign report; the bin renders its summary.
pub fn campaign_sweep(
    scenarios: usize,
    master_seed: u64,
    threads: usize,
) -> campaign::CampaignReport {
    campaign::run_campaign(campaign::CampaignConfig {
        scenarios,
        master_seed,
        threads,
        with_1553: false,
        envelope_override: None,
        policy_override: None,
        faults: campaign::FaultMode::Off,
    })
}

/// Renders a campaign summary as a text table.
pub fn render_campaign(report: &campaign::CampaignReport) -> String {
    let summary = &report.outcome.summary;
    let mut out = String::new();
    out.push_str(&format!(
        "E8 — scenario-sweep campaign (master seed {}, {} scenarios)\n",
        report.outcome.master_seed, summary.scenarios
    ));
    out.push_str(&format!(
        "validated {:>5}   infeasible {:>4}   sound {:>5}   soundness {:>6.1}%\n",
        summary.validated,
        summary.infeasible,
        summary.sound_scenarios,
        summary.soundness_rate * 100.0,
    ));
    out.push_str(&format!(
        "tightness ({} samples): min {:.4}  mean {:.4}  p50 {:.4}  p99 {:.4}  max {:.4}\n",
        summary.tightness.count,
        summary.tightness.min,
        summary.tightness.mean,
        summary.tightness.p50,
        summary.tightness.p99,
        summary.tightness.max,
    ));
    out.push_str(&format!(
        "throughput: {:.1} scenarios/sec on {} threads\n",
        report.runtime.scenarios_per_sec, report.runtime.threads
    ));
    for arm in &summary.by_approach {
        out.push_str(&format!(
            "{:<18} validated {:>4}  sound {:>4}  deadline-miss scenarios {:>4}  mean tightness {:.4}\n",
            arm.approach.to_string(),
            arm.validated,
            arm.sound,
            arm.deadline_miss_scenarios,
            arm.mean_tightness,
        ));
    }
    out
}

// ---------------------------------------------------------------- E9

/// One row of the multi-switch topology sweep: a fabric, its multi-hop
/// bounds for the urgent class, the pay-bursts-only-once gain, and the
/// simulated check.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiSwitchRow {
    /// Human-readable fabric label ("single switch", "line of 3", …).
    pub label: String,
    /// Number of switches in the fabric.
    pub switches: usize,
    /// The longest path any flow takes, in links.
    pub max_links: usize,
    /// Worst urgent-class per-hop-summed bound, milliseconds.
    pub urgent_hop_sum_ms: f64,
    /// Worst urgent-class pay-bursts-only-once bound, milliseconds.
    pub urgent_convolved_ms: f64,
    /// Worst urgent-class reported bound (min of stage sum and convolved),
    /// milliseconds.
    pub urgent_total_ms: f64,
    /// The largest `per-hop sum − convolved` gap across all messages,
    /// milliseconds.
    pub max_pboo_gain_ms: f64,
    /// Worst simulated urgent-class delay, milliseconds.
    pub simulated_urgent_ms: f64,
    /// `true` when every simulated delay respected its analytic bound.
    pub sound: bool,
    /// `true` when every message meets its deadline on this fabric.
    pub all_ok: bool,
}

/// E9: sweep the switch fabric — single switch, cascaded lines, a
/// star-of-stars — over the reduced case study and report how the
/// multi-hop bounds grow with depth, how much pay-bursts-only-once
/// tightens them, and that the cascaded simulation stays within every
/// bound.
pub fn multi_switch_sweep(horizon: Duration, seed: u64) -> Vec<MultiSwitchRow> {
    use ethernet::Fabric;
    let workload = case_study_with(CaseStudyConfig {
        subsystems: 6,
        with_command_traffic: true,
    });
    let config = NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100));
    let stations = workload.stations.len();
    let fabrics: Vec<(String, Fabric)> = vec![
        ("single switch".into(), Fabric::single_switch(stations)),
        ("line of 2".into(), Fabric::line(2, stations)),
        ("line of 3".into(), Fabric::line(3, stations)),
        (
            "star of 2 leaves".into(),
            Fabric::star_of_stars(2, stations),
        ),
        (
            "star of 3 leaves".into(),
            Fabric::star_of_stars(3, stations),
        ),
    ];
    fabrics
        .into_iter()
        .map(|(label, fabric)| {
            let analysis = rtswitch_core::analyze_multi_hop(
                &workload,
                &config,
                Approach::StrictPriority,
                &fabric,
            )
            .expect("the reduced case study is stable at 100 Mbps on every fabric");
            let simulation = Simulator::with_fabric(
                workload.clone(),
                rtswitch_core::sim_config_for(Approach::StrictPriority, &config, horizon, seed),
                fabric.clone(),
            )
            .run();
            let validation = rtswitch_core::validation_from_bound_lookup(
                &workload,
                |id| analysis.bound_for(id).map(|b| b.total_bound),
                simulation,
            );
            let urgent = |f: fn(&rtswitch_core::MultiHopMessageBound) -> Duration| {
                analysis
                    .messages
                    .iter()
                    .filter(|m| m.class == TrafficClass::UrgentSporadic)
                    .map(f)
                    .fold(Duration::ZERO, Duration::max)
            };
            MultiSwitchRow {
                label,
                switches: fabric.switch_count(),
                max_links: fabric.diameter_links(),
                urgent_hop_sum_ms: urgent(|m| m.hop_sum_bound).as_millis_f64(),
                urgent_convolved_ms: urgent(|m| m.convolved_bound).as_millis_f64(),
                urgent_total_ms: urgent(|m| m.total_bound).as_millis_f64(),
                max_pboo_gain_ms: analysis.max_pboo_gain().as_millis_f64(),
                simulated_urgent_ms: validation
                    .simulation
                    .worst_delay_of_class(TrafficClass::UrgentSporadic)
                    .as_millis_f64(),
                sound: validation.all_sound(),
                all_ok: analysis.all_deadlines_met(),
            }
        })
        .collect()
}

/// Renders the multi-switch sweep rows as a text table.
pub fn render_multi_switch(rows: &[MultiSwitchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E9 — multi-switch topology sweep (strict priority, C = 100 Mbps, urgent class)\n\
         {:<18} {:>8} {:>9} {:>12} {:>12} {:>11} {:>11} {:>11} {:>6} {:>8}\n",
        "fabric",
        "switches",
        "max links",
        "hop-sum",
        "convolved",
        "reported",
        "PBOO gain",
        "simulated",
        "sound",
        "all met?"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<18} {:>8} {:>9} {:>9.3} ms {:>9.3} ms {:>8.3} ms {:>8.3} ms {:>8.3} ms {:>6} {:>8}\n",
            row.label,
            row.switches,
            row.max_links,
            row.urgent_hop_sum_ms,
            row.urgent_convolved_ms,
            row.urgent_total_ms,
            row.max_pboo_gain_ms,
            row.simulated_urgent_ms,
            if row.sound { "yes" } else { "NO" },
            if row.all_ok { "yes" } else { "no" },
        ));
    }
    out
}

// ---------------------------------------------------------------- E10

/// One row of the capacity-headroom sweep: a workload intensity, the 1553B
/// feasibility verdict at that intensity, and the switched-Ethernet
/// pay-bursts-only-once picture on the same workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CapacityHeadroomRow {
    /// Number of subsystem stations of the case-study variant.
    pub subsystems: usize,
    /// Message streams in the workload.
    pub messages: usize,
    /// Bus utilization the workload demands of the 1 Mbps bus.
    pub offered_utilization: f64,
    /// `true` when the 1553B bus carries the workload.
    pub bus_feasible: bool,
    /// Worst 1553B response bound, milliseconds (`NaN` when infeasible).
    pub bus_worst_ms: f64,
    /// Worst Ethernet per-hop-sum bound across messages, milliseconds.
    pub ethernet_hop_sum_ms: f64,
    /// Worst Ethernet pay-bursts-only-once (convolved) bound, milliseconds.
    pub ethernet_pboo_ms: f64,
    /// `true` when every Ethernet PBOO bound is consistent
    /// (`convolved ≤ per-hop sum`) and every message meets its deadline.
    pub ethernet_all_ok: bool,
}

/// E10: the capacity-headroom sweep — scale the case-study workload up one
/// subsystem at a time and chart where the 1 Mbps polled bus runs out of
/// capacity while the switched-Ethernet pay-bursts-only-once bounds (on a
/// cascaded two-switch fabric at 100 Mbps) still meet every deadline.
///
/// This is the paper's replacement argument as a single table: the bus
/// hits a hard intensity wall; Ethernet crosses it with bounded delays.
pub fn capacity_headroom(max_subsystems: usize) -> Vec<CapacityHeadroomRow> {
    use ethernet::Fabric;
    let config = NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100));
    (1..=max_subsystems)
        .map(|subsystems| {
            let workload = case_study_with(CaseStudyConfig {
                subsystems,
                with_command_traffic: false,
            });
            let fabric = Fabric::line(2, workload.stations.len());
            let ethernet = rtswitch_core::analyze_multi_hop(
                &workload,
                &config,
                Approach::StrictPriority,
                &fabric,
            );
            let (hop_sum, convolved, all_ok) = match &ethernet {
                Ok(report) => {
                    let worst = |f: fn(&rtswitch_core::MultiHopMessageBound) -> Duration| {
                        report
                            .messages
                            .iter()
                            .map(f)
                            .fold(Duration::ZERO, Duration::max)
                    };
                    let consistent = report
                        .messages
                        .iter()
                        .all(|m| m.convolved_bound <= m.hop_sum_bound);
                    (
                        worst(|m| m.hop_sum_bound).as_millis_f64(),
                        worst(|m| m.convolved_bound).as_millis_f64(),
                        consistent && report.all_deadlines_met(),
                    )
                }
                Err(_) => (f64::NAN, f64::NAN, false),
            };
            match rtswitch_core::analyze_1553(&workload) {
                Ok(study) => CapacityHeadroomRow {
                    subsystems,
                    messages: workload.messages.len(),
                    offered_utilization: study.offered_utilization,
                    bus_feasible: true,
                    bus_worst_ms: study.analysis.worst_overall().as_millis_f64(),
                    ethernet_hop_sum_ms: hop_sum,
                    ethernet_pboo_ms: convolved,
                    ethernet_all_ok: all_ok,
                },
                Err(verdict) => CapacityHeadroomRow {
                    subsystems,
                    messages: workload.messages.len(),
                    offered_utilization: verdict.offered_utilization,
                    bus_feasible: false,
                    bus_worst_ms: f64::NAN,
                    ethernet_hop_sum_ms: hop_sum,
                    ethernet_pboo_ms: convolved,
                    ethernet_all_ok: all_ok,
                },
            }
        })
        .collect()
}

/// The crossover intensity of a headroom sweep: the smallest subsystem
/// count at which the 1553B bus is infeasible while every Ethernet
/// pay-bursts-only-once bound still meets its deadline.
pub fn headroom_crossover(rows: &[CapacityHeadroomRow]) -> Option<usize> {
    rows.iter()
        .find(|r| !r.bus_feasible && r.ethernet_all_ok)
        .map(|r| r.subsystems)
}

/// Renders the capacity-headroom rows as a text table.
pub fn render_capacity_headroom(rows: &[CapacityHeadroomRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "E10 — capacity headroom: 1 Mbps 1553B bus vs 100 Mbps switched Ethernet (line of 2, PBOO)\n\
         {:<11} {:>9} {:>10} {:>9} {:>12} {:>12} {:>12} {:>9}\n",
        "subsystems",
        "messages",
        "bus util",
        "bus ok?",
        "bus worst",
        "eth hop-sum",
        "eth PBOO",
        "eth ok?"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<11} {:>9} {:>10.3} {:>9} {:>9.2} ms {:>9.3} ms {:>9.3} ms {:>9}\n",
            row.subsystems,
            row.messages,
            row.offered_utilization,
            if row.bus_feasible { "yes" } else { "NO" },
            row.bus_worst_ms,
            row.ethernet_hop_sum_ms,
            row.ethernet_pboo_ms,
            if row.ethernet_all_ok { "yes" } else { "no" },
        ));
    }
    if let Some(crossover) = headroom_crossover(rows) {
        out.push_str(&format!(
            "crossover: at {crossover} subsystems the 1553B bus is infeasible while every \
             Ethernet PBOO bound meets its deadline\n"
        ));
    }
    out
}

// ---------------------------------------------------------------- E11

/// One row of the envelope-ablation sweep: the same scenario analysed by
/// the closed-form token-bucket pipeline and by the piecewise-linear
/// curve engine (staircase envelopes, general min-plus operators).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnvelopeCurveRow {
    /// Campaign scenario id (of the master seed passed to the sweep).
    pub scenario_id: usize,
    /// Message streams analysed.
    pub messages: usize,
    /// Switches in the scenario's fabric.
    pub switches: usize,
    /// Multiplexing policy of the scenario.
    pub approach: Approach,
    /// Worst end-to-end bound under the token-bucket model, milliseconds.
    pub token_bucket_worst_ms: f64,
    /// Worst end-to-end bound under the staircase model, milliseconds.
    pub staircase_worst_ms: f64,
    /// Median per-message relative tightening `(tb − staircase) / tb`.
    pub median_gain: f64,
    /// Largest per-message relative tightening.
    pub max_gain: f64,
    /// Wall-clock cost of the closed-form analysis, microseconds.
    pub token_bucket_micros: f64,
    /// Wall-clock cost of the curve-engine analysis, microseconds.
    pub staircase_micros: f64,
}

/// Aggregate of an envelope-ablation sweep: the bound improvement the
/// staircase envelopes buy and the analysis-throughput cost of computing
/// them through the general curve engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnvelopeCurveSummary {
    /// Scenarios analysed (analytically feasible ones).
    pub scenarios: usize,
    /// Median of the per-scenario median gains.
    pub median_gain: f64,
    /// Largest per-message gain seen anywhere in the sweep.
    pub max_gain: f64,
    /// Closed-form analyses per second.
    pub closed_form_per_sec: f64,
    /// Curve-engine analyses per second.
    pub curve_per_sec: f64,
    /// `closed_form_per_sec / curve_per_sec` — how many closed-form
    /// analyses one curve-engine analysis costs.
    pub throughput_ratio: f64,
}

/// E11: the envelope ablation — run the first `scenarios` campaign
/// scenarios of `master_seed` through both arrival-envelope models,
/// recording the per-scenario bound tightening and the wall-clock cost of
/// the general curve engine relative to the closed forms.
pub fn envelope_curve_ablation(
    scenarios: usize,
    master_seed: u64,
) -> (Vec<EnvelopeCurveRow>, EnvelopeCurveSummary) {
    use netcalc::EnvelopeModel;
    use std::time::Instant;

    let space = campaign::ScenarioSpace::new(master_seed);
    let mut rows = Vec::new();
    let mut tb_total = 0.0_f64;
    let mut st_total = 0.0_f64;
    for id in 0..scenarios {
        let scenario = space.scenario(id);
        let workload = scenario.build_workload();
        let fabric = scenario.build_fabric(&workload);
        let config = scenario.network_config();

        let started = Instant::now();
        let tb = rtswitch_core::analyze_multi_hop_with(
            &workload,
            &config,
            scenario.approach,
            &fabric,
            EnvelopeModel::TokenBucket,
        );
        let tb_micros = started.elapsed().as_secs_f64() * 1e6;
        let started = Instant::now();
        let st = rtswitch_core::analyze_multi_hop_with(
            &workload,
            &config,
            scenario.approach,
            &fabric,
            EnvelopeModel::Staircase,
        );
        let st_micros = started.elapsed().as_secs_f64() * 1e6;
        let (Ok(tb), Ok(st)) = (tb, st) else {
            continue; // analytically infeasible under both models
        };
        tb_total += tb_micros;
        st_total += st_micros;

        let worst = |report: &rtswitch_core::MultiHopReport| {
            report
                .messages
                .iter()
                .map(|m| m.total_bound)
                .fold(Duration::ZERO, Duration::max)
                .as_millis_f64()
        };
        let gain = campaign::EnvelopeGain::from_reports(&tb, &st);
        rows.push(EnvelopeCurveRow {
            scenario_id: id,
            messages: workload.messages.len(),
            switches: fabric.switch_count(),
            approach: scenario.approach,
            token_bucket_worst_ms: worst(&tb),
            staircase_worst_ms: worst(&st),
            median_gain: gain.median,
            max_gain: gain.max,
            token_bucket_micros: tb_micros,
            staircase_micros: st_micros,
        });
    }

    let mut medians: Vec<f64> = rows.iter().map(|r| r.median_gain).collect();
    medians.sort_by(|a, b| a.partial_cmp(b).expect("finite gains"));
    let summary = EnvelopeCurveSummary {
        scenarios: rows.len(),
        median_gain: medians.get(medians.len() / 2).copied().unwrap_or(0.0),
        max_gain: rows.iter().map(|r| r.max_gain).fold(0.0, f64::max),
        closed_form_per_sec: if tb_total > 0.0 {
            rows.len() as f64 / (tb_total / 1e6)
        } else {
            0.0
        },
        curve_per_sec: if st_total > 0.0 {
            rows.len() as f64 / (st_total / 1e6)
        } else {
            0.0
        },
        throughput_ratio: if st_total > 0.0 {
            st_total / tb_total
        } else {
            0.0
        },
    };
    (rows, summary)
}

/// Renders the envelope-ablation sweep as a text table.
pub fn render_envelope_curves(rows: &[EnvelopeCurveRow], summary: &EnvelopeCurveSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4} {:>5} {:>3} {:<16} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9}\n",
        "id",
        "msgs",
        "sw",
        "approach",
        "tb worst ms",
        "st worst ms",
        "med gain",
        "max gain",
        "tb µs",
        "curve µs"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>4} {:>5} {:>3} {:<16} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>9.0} {:>9.0}\n",
            row.scenario_id,
            row.messages,
            row.switches,
            row.approach.to_string(),
            row.token_bucket_worst_ms,
            row.staircase_worst_ms,
            row.median_gain,
            row.max_gain,
            row.token_bucket_micros,
            row.staircase_micros,
        ));
    }
    out.push_str(&format!(
        "summary: {} scenarios | median gain {:.4} | max gain {:.4} | closed-form {:.0}/s | \
         curve {:.0}/s | curve/closed-form cost ratio {:.2}x\n",
        summary.scenarios,
        summary.median_gain,
        summary.max_gain,
        summary.closed_form_per_sec,
        summary.curve_per_sec,
        summary.throughput_ratio,
    ));
    out
}

// ---------------------------------------------------------------- E12

/// One row of E12 — the paper case study under one scheduling policy at
/// one link rate, aggregated per traffic class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyAblationRow {
    /// Human-readable policy label ("FCFS", "strict priority", "WRR …").
    pub policy: String,
    /// Link rate of the run, Mbps.
    pub link_rate_mbps: u64,
    /// `false` when the policy is analytically infeasible at this rate
    /// (a WRR class's quantum share cannot carry its load) — the bound
    /// fields are zero then.
    pub feasible: bool,
    /// Traffic class.
    pub class: TrafficClass,
    /// Messages of the class.
    pub messages: usize,
    /// Worst analytic end-to-end bound of the class, milliseconds.
    pub worst_bound_ms: f64,
    /// Worst simulated delay of the class, milliseconds.
    pub worst_observed_ms: f64,
    /// Worst per-message `observed / bound` of the class (how much of the
    /// bound the simulation actually used).
    pub tightness: f64,
    /// Smallest per-message `deadline − bound` of the class, milliseconds
    /// — negative when the policy's bound misses a deadline.
    pub deadline_margin_ms: f64,
    /// Whether every class message's bound meets its deadline.
    pub meets_deadline: bool,
}

/// The WRR weight set E12 ships the case study with: byte quanta 2:2:1:1
/// (two maximal frames per visit for the urgent and periodic classes, one
/// for the sporadic and background classes).
pub fn e12_wrr_approach() -> Approach {
    Approach::Wrr {
        weights: netsim::WrrWeights::new(
            &[2 * 1_518, 2 * 1_518, 1_518, 1_518],
            netsim::WrrUnit::Bytes,
        ),
    }
}

/// E12: the policy ablation — the paper's case study analysed and
/// simulated under all three scheduling policies (FCFS, 4-level strict
/// priority, WRR) at the paper's 10 Mbps and at 100 Mbps, recording
/// per-class bound tightness against the simulation and the deadline
/// margins.
pub fn policy_ablation(
    workload: &Workload,
    horizon: Duration,
    seed: u64,
) -> Vec<PolicyAblationRow> {
    use rtswitch_core::validate_against_simulation;

    let policies: [(String, Approach); 3] = [
        ("FCFS".into(), Approach::Fcfs),
        ("strict priority".into(), Approach::StrictPriority),
        ("WRR 2:2:1:1 bytes".into(), e12_wrr_approach()),
    ];
    let mut rows = Vec::new();
    for rate_mbps in [10u64, 100] {
        let config = NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(rate_mbps));
        for (label, approach) in &policies {
            match analyze(workload, &config, *approach) {
                Err(_) => {
                    for class in TrafficClass::ALL {
                        rows.push(PolicyAblationRow {
                            policy: label.clone(),
                            link_rate_mbps: rate_mbps,
                            feasible: false,
                            class,
                            messages: 0,
                            worst_bound_ms: 0.0,
                            worst_observed_ms: 0.0,
                            tightness: 0.0,
                            deadline_margin_ms: 0.0,
                            meets_deadline: false,
                        });
                    }
                }
                Ok(report) => {
                    let validation = validate_against_simulation(workload, &report, horizon, seed);
                    for class in TrafficClass::ALL {
                        let bounds: Vec<_> = report
                            .messages
                            .iter()
                            .filter(|m| m.class == class)
                            .collect();
                        if bounds.is_empty() {
                            continue;
                        }
                        let worst_bound = bounds
                            .iter()
                            .map(|m| m.total_bound)
                            .fold(Duration::ZERO, Duration::max);
                        let margin = bounds
                            .iter()
                            .map(|m| m.deadline.as_millis_f64() - m.total_bound.as_millis_f64())
                            .fold(f64::INFINITY, f64::min);
                        let entries: Vec<_> = validation
                            .entries
                            .iter()
                            .filter(|e| bounds.iter().any(|m| m.message == e.message))
                            .collect();
                        let worst_observed = entries
                            .iter()
                            .map(|e| e.observed_worst)
                            .fold(Duration::ZERO, Duration::max);
                        let tightness = entries
                            .iter()
                            .filter(|e| e.samples > 0 && !e.is_degenerate())
                            .map(|e| e.tightness())
                            .fold(0.0, f64::max);
                        rows.push(PolicyAblationRow {
                            policy: label.clone(),
                            link_rate_mbps: rate_mbps,
                            feasible: true,
                            class,
                            messages: bounds.len(),
                            worst_bound_ms: worst_bound.as_millis_f64(),
                            worst_observed_ms: worst_observed.as_millis_f64(),
                            tightness,
                            deadline_margin_ms: margin,
                            meets_deadline: bounds.iter().all(|m| m.meets_deadline),
                        });
                    }
                }
            }
        }
    }
    rows
}

/// Renders the policy ablation as a text table.
pub fn render_policy_ablation(rows: &[PolicyAblationRow]) -> String {
    let mut out = String::new();
    out.push_str("E12 — policy ablation: per-class bounds, tightness and deadline margins\n");
    out.push_str(&format!(
        "{:<20} {:>6} {:<14} {:>10} {:>12} {:>9} {:>12} {:>6}\n",
        "policy", "Mbps", "class", "bound ms", "observed ms", "tight", "margin ms", "meets"
    ));
    for row in rows {
        if !row.feasible {
            out.push_str(&format!(
                "{:<20} {:>6} {:<14} {:>10}\n",
                row.policy,
                row.link_rate_mbps,
                row.class.to_string(),
                "infeasible"
            ));
            continue;
        }
        out.push_str(&format!(
            "{:<20} {:>6} {:<14} {:>10.3} {:>12.3} {:>9.4} {:>12.3} {:>6}\n",
            row.policy,
            row.link_rate_mbps,
            row.class.to_string(),
            row.worst_bound_ms,
            row.worst_observed_ms,
            row.tightness,
            row.deadline_margin_ms,
            if row.meets_deadline { "yes" } else { "NO" },
        ));
    }
    out
}

// ---------------------------------------------------------------- E13

/// One row of the admission-throughput experiment: the same seeded query
/// trace driven through the incremental engine at one batch size, compared
/// against the cost of answering every query with a from-scratch
/// `analyze_multi_hop_with` run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdmissionThroughputRow {
    /// Queries handed to the engine per `evaluate_batch` call (1 = the
    /// sequential `admit`/`revoke`/`modify` path).
    pub batch: usize,
    /// Queries in the trace.
    pub queries: usize,
    /// Worker threads for in-group previews.
    pub threads: usize,
    /// Commuting groups formed across the run.
    pub groups: usize,
    /// Flows still admitted when the trace ends.
    pub active_flows: usize,
    /// Queries answered per second by the incremental engine.
    pub admissions_per_sec: f64,
    /// Mean incremental cost per query, in microseconds.
    pub incremental_us_per_query: f64,
    /// Mean cost of one from-scratch re-analysis of the final network, in
    /// microseconds — what every query would cost without the cache.
    pub scratch_us_per_query: f64,
    /// `scratch_us_per_query / incremental_us_per_query`.
    pub speedup_vs_scratch: f64,
    /// Fraction of per-port cache lookups served without recomputation.
    pub cache_hit_rate: f64,
    /// Whether the final incremental state serializes byte-identically to
    /// the from-scratch analysis (the cache-soundness gate).
    pub matches_scratch: bool,
}

/// Stations of the E13 network: a wide edge switch.  Width is what the
/// cache monetizes — each admission's dirty closure is a handful of the
/// 256 ports, where a from-scratch run pays for all of them.
const E13_STATIONS: usize = 128;

/// The E13 network: one wide switch at 100 Mbps under strict priority,
/// pre-loaded with a light ring workload (station `i` streams to station
/// `i + 1`) so every port starts occupied, then churned by the seeded
/// peer-to-peer admission trace.
fn admission_bench_engine(stations: usize) -> AdmissionEngine {
    let mut workload = Workload::new();
    for i in 0..stations {
        workload.add_station(format!("es-{i}"));
    }
    for i in 0..stations {
        workload.add_message(
            format!("seed-{i}"),
            StationId(i),
            StationId((i + 1) % stations),
            DataSize::from_bytes(64),
            Arrival::Periodic {
                period: Duration::from_millis(40),
            },
            Duration::from_millis(40),
        );
    }
    let fabric = Fabric::single_switch(stations);
    let config = NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100));
    AdmissionEngine::new(
        &workload,
        &fabric,
        &config,
        Approach::StrictPriority,
        EnvelopeModel::TokenBucket,
    )
    .expect("the E13 seed network is analysable")
}

/// E13 — admission throughput.  Replays the same seeded trace at batch
/// sizes 1, 64 and 1024 on a fresh engine each time, so the rows isolate
/// the effect of batching (commuting-group concurrency) on top of the
/// shared per-port curve cache.
pub fn admission_throughput(
    seed: u64,
    queries: usize,
    threads: usize,
) -> Vec<AdmissionThroughputRow> {
    [1usize, 64, 1024]
        .into_iter()
        .map(|batch| admission_throughput_row(seed, queries, batch, threads))
        .collect()
}

fn admission_throughput_row(
    seed: u64,
    queries: usize,
    batch: usize,
    threads: usize,
) -> AdmissionThroughputRow {
    let mut engine = admission_bench_engine(E13_STATIONS);
    let ops = trace_ops(seed, queries, engine.station_count());

    let started = std::time::Instant::now();
    let mut groups = 0usize;
    for chunk in ops.chunks(batch) {
        let resolved: Vec<AdmissionQuery> = chunk
            .iter()
            .map(|op| resolve(op, engine.active_flows()))
            .collect();
        if batch == 1 {
            for query in resolved {
                match query {
                    AdmissionQuery::Admit { flow } => {
                        engine.admit(flow);
                    }
                    AdmissionQuery::Revoke { flow } => {
                        engine.revoke(flow);
                    }
                    AdmissionQuery::Modify { flow, spec } => {
                        engine.modify(flow, spec);
                    }
                }
                groups += 1;
            }
        } else {
            groups += engine.evaluate_batch(&resolved, threads).groups.len();
        }
    }
    let incremental_secs = started.elapsed().as_secs_f64();

    // The no-cache baseline: every query re-runs the full multi-hop
    // analysis of the network it would leave behind.  Timing the final
    // state (the largest the flow set gets in expectation) a few times
    // gives a stable per-query figure without re-simulating the trace.
    let workload = engine.workload();
    let scratch_reps = 5;
    let scratch_started = std::time::Instant::now();
    let mut scratch = None;
    for _ in 0..scratch_reps {
        scratch = Some(analyze_multi_hop_with(
            &workload,
            engine.config(),
            engine.approach(),
            engine.fabric(),
            engine.model(),
        ));
    }
    let scratch_secs_per_query = scratch_started.elapsed().as_secs_f64() / scratch_reps as f64;

    let matches_scratch = match scratch.expect("at least one rep").ok() {
        Some(report) => {
            to_json(&engine.snapshot().report).expect("serializes")
                == to_json(&report).expect("serializes")
        }
        None => false,
    };

    let incremental_secs_per_query = incremental_secs / queries.max(1) as f64;
    let stats = engine.stats();
    AdmissionThroughputRow {
        batch,
        queries,
        threads,
        groups,
        active_flows: engine.active_flows().len(),
        admissions_per_sec: if incremental_secs > 0.0 {
            queries as f64 / incremental_secs
        } else {
            0.0
        },
        incremental_us_per_query: incremental_secs_per_query * 1e6,
        scratch_us_per_query: scratch_secs_per_query * 1e6,
        speedup_vs_scratch: if incremental_secs_per_query > 0.0 {
            scratch_secs_per_query / incremental_secs_per_query
        } else {
            0.0
        },
        cache_hit_rate: stats.cache_hit_rate(),
        matches_scratch,
    }
}

/// Renders E13 as the table its bin prints (see the README's "Experiments"
/// section).
pub fn render_admission_throughput(rows: &[AdmissionThroughputRow]) -> String {
    let mut out = String::new();
    out.push_str("E13 — admission throughput: incremental per-port cache vs from-scratch\n\n");
    out.push_str(&format!(
        "{:>6} {:>8} {:>8} {:>7} {:>16} {:>12} {:>14} {:>9} {:>9} {:>8}\n",
        "batch",
        "queries",
        "groups",
        "flows",
        "admissions_per_sec",
        "inc µs/query",
        "scratch µs/query",
        "speedup",
        "hit-rate",
        "sound"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>6} {:>8} {:>8} {:>7} {:>16.0} {:>12.1} {:>14.1} {:>8.1}x {:>8.1}% {:>8}\n",
            row.batch,
            row.queries,
            row.groups,
            row.active_flows,
            row.admissions_per_sec,
            row.incremental_us_per_query,
            row.scratch_us_per_query,
            row.speedup_vs_scratch,
            row.cache_hit_rate * 100.0,
            if row.matches_scratch { "yes" } else { "NO" },
        ));
    }
    out
}

// ---------------------------------------------------------------- E14

/// One row of the fault-inflation experiment: the degraded-mode bounds of
/// one policy arm under one fault ladder rung, validated against the
/// faulty simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultInflationRow {
    /// The scheduling-policy arm.
    pub policy: String,
    /// Injected faults (babblers + failover) at this rung.
    pub fault_count: usize,
    /// Babbling-idiot talkers at this rung.
    pub babblers: usize,
    /// Whether this rung schedules the trunk failover.
    pub failover: bool,
    /// Largest degraded-over-healthy bound ratio across messages.
    pub max_bound_inflation: f64,
    /// Mean degraded-over-healthy bound ratio across messages.
    pub mean_bound_inflation: f64,
    /// Largest degraded total bound, in milliseconds.
    pub worst_degraded_bound_ms: f64,
    /// `true` when the degraded bounds still meet every deadline.
    pub bounds_hold: bool,
    /// `true` when every surviving simulated frame respected its degraded
    /// bound.
    pub sound: bool,
}

/// The E14 fault ladder: `rung` babblers (station `2i+1` floods station 0
/// at the highest priority), plus the trunk failover on the last rung.
fn fault_ladder_rung(rung: usize, stations: usize, fabric: &Fabric) -> netsim::FaultModel {
    let babblers = (0..rung.min(3))
        .map(|i| netsim::Babbler {
            station: StationId((2 * i + 1) % stations),
            destination: StationId(0),
            payload: DataSize::from_bytes(64),
            start: Duration::ZERO,
            interval: Duration::from_millis(5),
        })
        .collect();
    let failover = (rung >= 3).then(|| {
        let backup = fabric
            .backup_for(0)
            .expect("the E14 line fabric reconnects");
        netsim::TrunkFailover {
            trunk: 0,
            backup,
            at: Duration::from_millis(80),
        }
    });
    netsim::FaultModel {
        babblers,
        link_faults: Vec::new(),
        failover,
        monitor: None,
    }
}

/// E14 — degraded-mode bound inflation vs fault count.  A three-switch
/// line fabric at 100 Mbps carries the bus-sized case study; each policy
/// arm climbs a fault ladder (0 → 2 babblers, then babblers + trunk
/// failover) and every rung's degraded bounds are validated against the
/// simulator injecting the identical fault set.
pub fn fault_inflation(seed: u64, horizon: Duration) -> Vec<FaultInflationRow> {
    let workload = bus_sized_case_study();
    let stations = workload.stations.len();
    let config = NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100));
    let arms: Vec<(&str, Approach)> = vec![
        ("fcfs", Approach::Fcfs),
        ("strict-priority", Approach::StrictPriority),
        (
            "wrr-4/2/1/1",
            Approach::Wrr {
                weights: ethernet::WrrWeights::new(&[4, 2, 1, 1], ethernet::WrrUnit::Frames),
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, approach) in arms {
        for rung in 0..=3usize {
            let fabric = Fabric::line(3, stations);
            let faults = fault_ladder_rung(rung, stations, &fabric);
            let degraded = rtswitch_core::analyze_degraded_with(
                &workload,
                &config,
                approach,
                &fabric,
                EnvelopeModel::TokenBucket,
                &faults,
            )
            .expect("the E14 ladder stays feasible at 100 Mbps");
            let simulation = Simulator::with_fabric(
                workload.clone(),
                rtswitch_core::sim_config_for(approach, &config, horizon, seed),
                fabric,
            )
            .with_faults(faults.clone())
            .run();
            let validation = rtswitch_core::validation_from_bound_lookup(
                &workload,
                |id| degraded.bound_for(id),
                simulation,
            );
            let inflations: Vec<f64> = degraded.flows.iter().map(|f| f.inflation).collect();
            let worst_bound = degraded
                .flows
                .iter()
                .map(|f| f.degraded_bound)
                .fold(Duration::ZERO, Duration::max);
            rows.push(FaultInflationRow {
                policy: name.to_string(),
                fault_count: faults.fault_count(),
                babblers: faults.babblers.len(),
                failover: faults.failover.is_some(),
                max_bound_inflation: degraded.max_inflation(),
                mean_bound_inflation: inflations.iter().sum::<f64>()
                    / inflations.len().max(1) as f64,
                worst_degraded_bound_ms: worst_bound.as_nanos() as f64 / 1e6,
                bounds_hold: degraded.bounds_hold,
                sound: validation.all_sound(),
            });
        }
    }
    rows
}

/// Renders the E14 rows as an aligned table.
pub fn render_fault_inflation(rows: &[FaultInflationRow]) -> String {
    let mut out = String::from(
        "E14 — degraded-mode bound inflation vs fault count\n\
         (3-switch line, 100 Mbps, bus-sized case study; babblers flood at\n\
         the highest priority, the last rung adds a trunk failover)\n\n",
    );
    out.push_str(&format!(
        "{:<16} {:>6} {:>9} {:>9} {:>14} {:>14} {:>14} {:>11} {:>6}\n",
        "policy",
        "faults",
        "babblers",
        "failover",
        "max inflation",
        "mean inflation",
        "worst bound ms",
        "bounds hold",
        "sound",
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>6} {:>9} {:>9} {:>14.4} {:>14.4} {:>14.3} {:>11} {:>6}\n",
            row.policy,
            row.fault_count,
            row.babblers,
            row.failover,
            row.max_bound_inflation,
            row.mean_bound_inflation,
            row.worst_degraded_bound_ms,
            if row.bounds_hold { "yes" } else { "NO" },
            if row.sound { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ablation_covers_all_policies_and_is_sound() {
        let rows = policy_ablation(&case_study(), Duration::from_millis(320), 42);
        // Three policies × two rates × four classes (feasible or not).
        assert_eq!(rows.len(), 24);
        for row in rows.iter().filter(|r| r.feasible) {
            assert!(row.worst_bound_ms > 0.0);
            // Soundness: the simulation never exceeds the analytic bound.
            assert!(
                row.worst_observed_ms <= row.worst_bound_ms,
                "{} {} {}: observed {} > bound {}",
                row.policy,
                row.link_rate_mbps,
                row.class,
                row.worst_observed_ms,
                row.worst_bound_ms
            );
            assert!(row.tightness >= 0.0 && row.tightness <= 1.0 + 1e-9);
            assert_eq!(row.meets_deadline, row.deadline_margin_ms >= 0.0);
        }
        // The paper's Figure-1 verdicts survive inside E12: FCFS misses the
        // urgent deadline at 10 Mbps, strict priority meets every deadline.
        let urgent_fcfs = rows
            .iter()
            .find(|r| {
                r.policy == "FCFS"
                    && r.link_rate_mbps == 10
                    && r.class == TrafficClass::UrgentSporadic
            })
            .unwrap();
        assert!(!urgent_fcfs.meets_deadline);
        assert!(rows
            .iter()
            .filter(|r| r.policy == "strict priority" && r.link_rate_mbps == 10)
            .all(|r| r.meets_deadline));
        // At 100 Mbps every policy (WRR included) is feasible.
        assert!(rows
            .iter()
            .filter(|r| r.link_rate_mbps == 100)
            .all(|r| r.feasible));
        let table = render_policy_ablation(&rows);
        assert!(table.contains("E12"));
        assert!(table.contains("WRR"));
    }

    #[test]
    fn admission_throughput_is_sound_and_faster_than_scratch() {
        let rows = admission_throughput(42, 24, 2);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.iter().map(|r| r.batch).collect::<Vec<_>>(),
            vec![1, 64, 1024]
        );
        for row in &rows {
            assert!(row.matches_scratch, "batch {}: cache unsound", row.batch);
            assert_eq!(row.queries, 24);
            assert!(
                row.speedup_vs_scratch > 1.0,
                "batch {}: incremental slower than from-scratch ({:.2}x)",
                row.batch,
                row.speedup_vs_scratch
            );
            assert!(row.cache_hit_rate > 0.0 && row.cache_hit_rate <= 1.0);
        }
        let table = render_admission_throughput(&rows);
        assert!(table.contains("E13"));
        assert!(table.contains("admissions_per_sec"));
    }

    #[test]
    fn envelope_ablation_measures_gain_and_cost() {
        let (rows, summary) = envelope_curve_ablation(8, 42);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(
                row.staircase_worst_ms <= row.token_bucket_worst_ms + 1e-9,
                "scenario {}: staircase worst bound above token-bucket",
                row.scenario_id
            );
            assert!(row.median_gain >= 0.0 && row.max_gain >= row.median_gain);
            assert!(row.token_bucket_micros > 0.0 && row.staircase_micros > 0.0);
        }
        assert_eq!(summary.scenarios, rows.len());
        assert!(summary.max_gain > 0.0, "curve engine tightened nothing");
        assert!(summary.throughput_ratio > 0.0);
        let rendered = render_envelope_curves(&rows, &summary);
        assert!(rendered.contains("cost ratio"));
    }

    #[test]
    fn capacity_headroom_identifies_the_crossover() {
        let rows = capacity_headroom(15);
        assert_eq!(rows.len(), 15);
        // Light workloads fit the bus; the paper-scale ones do not.
        assert!(rows[0].bus_feasible, "one subsystem must fit the bus");
        assert!(
            !rows.last().unwrap().bus_feasible,
            "fifteen subsystems must exceed the bus"
        );
        // Utilization grows monotonically with intensity and crosses 1.
        for w in rows.windows(2) {
            assert!(w[1].offered_utilization >= w[0].offered_utilization);
        }
        assert!(rows.last().unwrap().offered_utilization > 1.0);
        // Feasibility is a prefix: once the bus saturates it stays so.
        let first_infeasible = rows.iter().position(|r| !r.bus_feasible).unwrap();
        assert!(rows[first_infeasible..].iter().all(|r| !r.bus_feasible));
        assert!(rows[..first_infeasible].iter().all(|r| r.bus_feasible));
        // The headline: a crossover exists where the bus is out of
        // capacity but every Ethernet PBOO bound still meets its deadline.
        let crossover = headroom_crossover(&rows).expect("crossover must exist");
        assert_eq!(crossover, rows[first_infeasible].subsystems);
        assert!(rows.iter().all(|r| r.ethernet_all_ok));
        // Feasible rows carry real bus figures in the polling regime.
        for row in &rows[..first_infeasible] {
            assert!(row.bus_worst_ms >= 20.0);
            assert!(row.ethernet_pboo_ms <= row.ethernet_hop_sum_ms + 1e-9);
            assert!(row.ethernet_pboo_ms < row.bus_worst_ms);
        }
        let text = render_capacity_headroom(&rows);
        assert!(text.contains("E10"));
        assert!(text.contains("crossover"));
    }

    #[test]
    fn multi_switch_sweep_is_sound_and_pboo_tightens_cascades() {
        let rows = multi_switch_sweep(Duration::from_millis(320), 7);
        assert_eq!(rows.len(), 5);
        // Every fabric: simulation within bounds, deadlines met at 100 Mbps.
        for row in &rows {
            assert!(row.sound, "{} produced a bound violation", row.label);
            assert!(row.all_ok, "{} missed a deadline", row.label);
            assert!(row.urgent_convolved_ms <= row.urgent_hop_sum_ms + 1e-9);
            assert!(row.urgent_total_ms <= row.urgent_convolved_ms + 1e-9);
            assert!(row.simulated_urgent_ms <= row.urgent_total_ms + 1e-9);
        }
        // The single switch is the baseline; deeper fabrics cost more.
        assert_eq!(rows[0].switches, 1);
        assert!(rows[2].urgent_total_ms > rows[0].urgent_total_ms);
        // Pay-bursts-only-once bites harder the more hops there are to
        // amortize the burst over.
        assert!(rows[2].max_pboo_gain_ms > 0.0);
        assert!(rows[2].max_pboo_gain_ms > rows[0].max_pboo_gain_ms);
        let text = render_multi_switch(&rows);
        assert!(text.contains("E9"));
        assert!(text.contains("line of 3"));
    }

    #[test]
    fn campaign_sweep_is_sound_and_renders() {
        let report = campaign_sweep(12, 42, 2);
        assert_eq!(report.outcome.results.len(), 12);
        assert!(report.outcome.summary.all_sound());
        let text = render_campaign(&report);
        assert!(text.contains("E8"));
        assert!(text.contains("soundness"));
        assert!(text.contains("strict priority"));
    }

    #[test]
    fn level_ablation_shows_two_levels_suffice_for_urgent_but_four_help_periodic() {
        let rows = level_ablation(&case_study());
        assert_eq!(rows.len(), 5);
        // One level = FCFS: urgent violated.
        assert!(!rows[0].all_ok);
        assert!(rows[0].urgent_ms > 3.0);
        // Two levels already rescue the urgent class.
        assert!(rows[1].urgent_ms < 3.0);
        // Adding levels never meaningfully worsens the urgent class (the
        // inflated burst of the blocking lower-priority frame can move the
        // bound by a few microseconds between level counts) and the paper's
        // four levels meet every deadline.
        assert!(rows[3].all_ok);
        for w in rows.windows(2) {
            assert!(w[1].urgent_ms <= w[0].urgent_ms + 0.01);
        }
        assert!(render_level_ablation(&rows).contains("levels"));
    }

    #[test]
    fn figure1_shape_matches_the_paper() {
        let fig = figure1(&case_study(), &NetworkConfig::paper_default());
        let rows = fig.rows();
        assert_eq!(rows.len(), 4);
        let urgent = &rows[0];
        assert_eq!(urgent.class, TrafficClass::UrgentSporadic);
        assert!(
            !urgent.fcfs_ok,
            "FCFS must violate the 3 ms urgent deadline"
        );
        assert!(urgent.priority_ok, "priority must meet the 3 ms deadline");
        assert!(urgent.priority_bound_ms < urgent.fcfs_bound_ms);
        // Periodic: priority bound below the FCFS bound (the paper's second
        // observation).
        let periodic = &rows[1];
        assert!(periodic.priority_bound_ms <= periodic.fcfs_bound_ms);
        assert!(fig.render().contains("VIOLATED"));
    }

    #[test]
    fn baseline_1553_shows_the_polling_limitation() {
        let result = baseline_1553();
        assert!(!result.full_case_study_schedulable);
        assert!(result.bus_utilization > 0.0 && result.bus_utilization <= 1.0);
        assert!(result.comparison.ethernet_only_wins > 0);
        assert_eq!(result.comparison.bus_only_wins, 0);
    }

    #[test]
    fn rate_sweep_shows_priorities_matter_beyond_rate() {
        let rows = rate_sweep(
            &case_study(),
            &[
                DataRate::from_mbps(10),
                DataRate::from_mbps(100),
                DataRate::from_gbps(1),
            ],
        );
        assert_eq!(rows.len(), 3);
        // At 10 Mbps FCFS violates the urgent deadline while priority meets it.
        assert!(!rows[0].fcfs_urgent_ok);
        assert!(rows[0].priority_urgent_ok);
        // Bounds shrink monotonically with the rate.
        assert!(rows[1].fcfs_urgent_ms < rows[0].fcfs_urgent_ms);
        assert!(rows[2].fcfs_urgent_ms < rows[1].fcfs_urgent_ms);
        assert!(render_rate_sweep(&rows).contains("10Mbps"));
    }

    #[test]
    fn sim_validation_is_sound_for_both_approaches() {
        let w = bus_sized_case_study();
        let cfg = NetworkConfig::paper_default();
        for approach in [Approach::Fcfs, Approach::StrictPriority] {
            let result = sim_validation(&w, &cfg, approach, Duration::from_millis(320), &[1, 2]);
            assert!(result.all_sound(), "{approach} produced a bound violation");
            assert!(result.mean_tightness() > 0.0 && result.mean_tightness() <= 1.0);
        }
    }

    #[test]
    fn jitter_rows_cover_all_classes() {
        let rows = jitter(Duration::from_millis(320), 3);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.fcfs_jitter_ms >= 0.0);
            assert!(row.priority_jitter_ms >= 0.0);
        }
        assert!(render_jitter(&rows).contains("1553B bus"));
    }

    #[test]
    fn shaping_ablation_protects_the_switch() {
        let result = shaping_ablation(
            16,
            DataSize::from_bytes(24_000),
            Duration::from_millis(200),
            5,
        );
        assert!(result.unshaped_losses() > result.shaped_losses());
        assert!(result.render().contains("frames dropped"));
    }

    #[test]
    fn fault_inflation_is_sound_and_monotone_in_fault_count() {
        let rows = fault_inflation(42, Duration::from_millis(160));
        assert_eq!(rows.len(), 12, "three policy arms x four ladder rungs");
        for arm in rows.chunks(4) {
            // Rung 0 injects nothing: the degraded bounds collapse onto the
            // healthy ones.
            assert_eq!(arm[0].fault_count, 0);
            assert_eq!(arm[0].max_bound_inflation, 1.0);
            assert!(!arm[0].failover);
            assert!(arm[3].failover, "the last rung schedules the failover");
            for (prev, next) in arm.iter().zip(arm.iter().skip(1)) {
                assert_eq!(prev.policy, next.policy);
                assert!(
                    next.max_bound_inflation >= prev.max_bound_inflation,
                    "{}: inflation shrank from {} to {} when adding faults",
                    next.policy,
                    prev.max_bound_inflation,
                    next.max_bound_inflation,
                );
            }
            for row in arm {
                assert!(row.mean_bound_inflation >= 1.0);
                assert!(row.mean_bound_inflation <= row.max_bound_inflation + 1e-12);
                assert!(
                    row.sound,
                    "{} with {} faults: a surviving frame exceeded its \
                     degraded bound",
                    row.policy, row.fault_count,
                );
            }
        }
        let table = render_fault_inflation(&rows);
        assert!(table.contains("wrr-4/2/1/1"));
        assert!(table.contains("trunk failover"));
    }
}
