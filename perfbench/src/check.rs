//! Output checks written against the wire format, independent of the
//! program's own validator (`youtiao::obs::validate`): every response
//! is re-derived from the request and the returned plan.

use std::collections::HashMap;

use serde::Value;
use youtiao::chip::spec::ChipSpec;
use youtiao::cost::constants::{
    COAX_COST_KUSD, READOUT_DAC_CAPACITY, READOUT_FEEDLINE_CAPACITY, RF_DAC_COST_KUSD,
    TWISTED_PAIR_COST_KUSD,
};
use youtiao::cost::WiringTally;
use youtiao::flow::ReportSummary;
use youtiao::serve::DesignRequest;

/// What one checked operation contributes to the end-to-end metrics.
#[derive(Clone, Copy)]
pub struct Outcome {
    pub ok: bool,
    /// Dedicated ÷ multiplexed cost; 1.0 for a failed operation.
    pub cost_reduction: f64,
    /// Dedicated ÷ multiplexed coax lines; 1.0 for a failed operation.
    pub coax_reduction: f64,
}

impl Outcome {
    fn failed() -> Outcome {
        Outcome {
            ok: false,
            cost_reduction: 1.0,
            coax_reduction: 1.0,
        }
    }
}

const ERROR_KINDS: [&str; 8] = [
    "InvalidRequest",
    "Plan",
    "Route",
    "Timeout",
    "Cancelled",
    "Validation",
    "Shed",
    "Internal",
];

/// Qubit and coupler counts of one die, in global numbering order.
struct Die {
    qubits: usize,
    couplers: usize,
}

/// The dies the request describes, after any dead-coupler delta.
fn dies_of(request: &DesignRequest) -> Result<Vec<Die>, String> {
    if request.chip.is_multi() {
        let mdc = request.chip.build_multi().map_err(|e| e.to_string())?;
        return Ok(mdc
            .dies()
            .iter()
            .map(|d| Die {
                qubits: d.num_qubits(),
                couplers: d.num_couplers(),
            })
            .collect());
    }
    let chip = request.chip.build().map_err(|e| e.to_string())?;
    let dead = request
        .effective_delta()
        .and_then(|d| d.dead_couplers.as_ref())
        .map_or(0, Vec::len);
    let spec = ChipSpec::from_chip(&chip);
    Ok(vec![Die {
        qubits: spec.qubits.len(),
        couplers: spec.couplers.len() - dead,
    }])
}

/// Memoizes [`check_design`] over repeated (request, result) pairs:
/// a plan-cache hit returns the result bytes its first computation
/// returned, so byte equality with an already-checked result implies
/// the same verdict.
#[derive(Default)]
pub struct Checker {
    memo: HashMap<(u64, u64), Outcome>,
}

impl Checker {
    /// `request_key` identifies the request payload (the echoed id,
    /// index and rid are not checked).
    pub fn check(
        &mut self,
        request_key: u64,
        request: &DesignRequest,
        response: &str,
    ) -> Result<Outcome, String> {
        let Some(result) = result_text(response) else {
            return check_design(request, response);
        };
        let key = (request_key, fnv(result));
        if let Some(&outcome) = self.memo.get(&key) {
            return Ok(outcome);
        }
        let outcome = check_design(request, response)?;
        self.memo.insert(key, outcome);
        Ok(outcome)
    }
}

/// The `result` object of a canonical Ok response (keys are sorted, so
/// it runs up to the `rid` field).
fn result_text(response: &str) -> Option<&str> {
    let start = response.find(r#""result":{"#)?;
    let end = response.rfind(r#","rid":""#)?;
    (start < end && response.ends_with(r#","status":"Ok"}"#)).then(|| &response[start..end])
}

/// FNV-1a of a string.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks one canonical design response against its request.
pub fn check_design(request: &DesignRequest, response: &str) -> Result<Outcome, String> {
    let v: Value = serde_json::from_str(response).map_err(|e| format!("unparsable: {e}"))?;
    if v["op"].as_str() != Some("design") {
        return Err(format!("not a design response: {response}"));
    }
    match v["status"].as_str() {
        Some("Ok") => {
            let summary: ReportSummary = serde_json::from_value(&v["result"])
                .map_err(|e| format!("result does not parse: {e}"))?;
            check_summary(request, &summary)
        }
        Some("Error") => {
            let kind = v["error"]["kind"].as_str().unwrap_or("");
            let message = v["error"]["message"].as_str().unwrap_or("");
            if !ERROR_KINDS.contains(&kind) || message.is_empty() {
                return Err(format!("error without a structured kind: {response}"));
            }
            Ok(Outcome::failed())
        }
        other => Err(format!("unknown status {other:?}")),
    }
}

fn ensure(condition: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(what())
    }
}

fn fanout(demux: &str) -> Option<(usize, usize)> {
    match demux {
        "1:8" => Some((8, 3)),
        "1:4" => Some((4, 2)),
        "1:2" => Some((2, 1)),
        "direct" => Some((1, 0)),
        _ => None,
    }
}

/// Every index in `0..n` exactly once across `lines`, each line within
/// `capacity`, and distinct frequencies on each line.
fn check_lines(
    what: &str,
    lines: &[youtiao::core::summary::FdmLineSummary],
    n: usize,
    capacity: usize,
) -> Result<(), String> {
    let mut seen = vec![0u32; n];
    for (i, line) in lines.iter().enumerate() {
        ensure(line.qubits.len() <= capacity, || {
            format!("{what} line {i} holds {} > {capacity}", line.qubits.len())
        })?;
        ensure(line.frequencies_ghz.len() == line.qubits.len(), || {
            format!("{what} line {i} frequency count mismatch")
        })?;
        for &q in &line.qubits {
            let slot = seen
                .get_mut(q as usize)
                .ok_or_else(|| format!("{what} line {i} names qubit {q} of {n}"))?;
            *slot += 1;
        }
        let mut freqs = line.frequencies_ghz.clone();
        freqs.sort_by(f64::total_cmp);
        ensure(freqs.windows(2).all(|w| w[0] != w[1]), || {
            format!("{what} line {i} repeats a frequency")
        })?;
    }
    ensure(seen.iter().all(|&c| c == 1), || {
        format!("{what} lines do not cover every qubit exactly once")
    })
}

fn cost_kusd(t: &WiringTally) -> f64 {
    let coax = t.xy_lines + t.z_lines + t.readout_feedlines;
    let rf_dacs = t.xy_lines + t.z_lines + t.readout_dacs;
    coax as f64 * COAX_COST_KUSD
        + rf_dacs as f64 * RF_DAC_COST_KUSD
        + t.demux_select_lines as f64 * TWISTED_PAIR_COST_KUSD
}

fn coax(t: &WiringTally) -> usize {
    t.xy_lines + t.z_lines + t.readout_feedlines
}

fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

fn check_summary(request: &DesignRequest, s: &ReportSummary) -> Result<Outcome, String> {
    let dies = dies_of(request)?;
    let n: usize = dies.iter().map(|d| d.qubits).sum();
    let config = request.planner_config();
    let plan = &s.plan;
    ensure(plan.total_qubits == n, || {
        format!("plan covers {} qubits of {n}", plan.total_qubits)
    })?;
    check_lines("xy", &plan.xy_lines, n, config.fdm_capacity)?;
    check_lines("readout", &plan.readout_lines, n, config.readout_capacity)?;

    // Z groups: every qubit and coupler exactly once (die-local ids
    // offset into the global numbering), select lines per fan-out.
    let couplers: usize = dies.iter().map(|d| d.couplers).sum();
    let mut qubit_seen = vec![0u32; n];
    let mut coupler_seen = vec![0u32; couplers];
    let mut selects = 0;
    for (i, group) in plan.z_lines.iter().enumerate() {
        let (ways, select) =
            fanout(&group.demux).ok_or_else(|| format!("z line {i}: demux {}", group.demux))?;
        ensure(group.select_lines == select, || {
            format!(
                "z line {i}: {} select lines on a {} demux",
                group.select_lines, group.demux
            )
        })?;
        ensure(
            !group.devices.is_empty() && group.devices.len() <= ways,
            || {
                format!(
                    "z line {i}: {} devices on a {} demux",
                    group.devices.len(),
                    group.demux
                )
            },
        )?;
        selects += select;
        for device in &group.devices {
            let (seen, index) = match device.split_at(1) {
                ("q", rest) => (&mut qubit_seen, rest),
                ("c", rest) => (&mut coupler_seen, rest),
                _ => return Err(format!("z line {i}: device {device}")),
            };
            let slot = index
                .parse::<usize>()
                .ok()
                .and_then(|k| seen.get_mut(k))
                .ok_or_else(|| format!("z line {i}: device {device} out of range"))?;
            *slot += 1;
        }
    }
    ensure(
        qubit_seen.iter().chain(&coupler_seen).all(|&c| c == 1),
        || "z groups do not cover every qubit and coupler exactly once".into(),
    )?;
    ensure(plan.demux_select_lines == selects, || {
        "demux select total disagrees with its groups".into()
    })?;

    // Tallies recomputed from the plan and the chip.
    let multiplexed = WiringTally {
        xy_lines: plan.xy_lines.len(),
        z_lines: plan.z_lines.len(),
        readout_feedlines: plan.readout_lines.len(),
        readout_dacs: dies
            .iter()
            .map(|d| d.qubits.div_ceil(READOUT_DAC_CAPACITY))
            .sum(),
        demux_select_lines: selects,
    };
    ensure(s.multiplexed == multiplexed, || {
        format!(
            "multiplexed tally {:?} != recomputed {multiplexed:?}",
            s.multiplexed
        )
    })?;
    let dedicated = WiringTally {
        xy_lines: n,
        z_lines: n + couplers,
        readout_feedlines: dies
            .iter()
            .map(|d| d.qubits.div_ceil(READOUT_FEEDLINE_CAPACITY))
            .sum(),
        readout_dacs: dies
            .iter()
            .map(|d| d.qubits.div_ceil(READOUT_DAC_CAPACITY))
            .sum(),
        demux_select_lines: 0,
    };
    ensure(s.dedicated == dedicated, || {
        format!(
            "dedicated tally {:?} != recomputed {dedicated:?}",
            s.dedicated
        )
    })?;
    let cost_reduction = cost_kusd(&dedicated) / cost_kusd(&multiplexed);
    let coax_reduction = coax(&dedicated) as f64 / coax(&multiplexed) as f64;
    ensure(same(s.cost_reduction, cost_reduction), || {
        format!("cost reduction {} != {cost_reduction}", s.cost_reduction)
    })?;
    ensure(same(s.coax_reduction, coax_reduction), || {
        format!("coax reduction {} != {coax_reduction}", s.coax_reduction)
    })?;
    if let Some(routing) = &s.routing {
        let nets = plan.xy_lines.len() + plan.z_lines.len() + plan.readout_lines.len();
        ensure(routing.nets == nets, || {
            format!("routed {} nets of {nets}", routing.nets)
        })?;
    }
    Ok(Outcome {
        ok: true,
        cost_reduction,
        coax_reduction,
    })
}

fn field(v: &Value, key: &str) -> Result<f64, String> {
    v[key]
        .as_f64()
        .ok_or_else(|| format!("sweep record lacks `{key}`"))
}

/// Checks one sweep record line against its grid point's inputs.
pub fn check_record(
    line: &str,
    couplers_by_chip: &dyn Fn(&str) -> usize,
) -> Result<Outcome, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("unparsable record: {e}"))?;
    match v["status"].as_str() {
        Some("Ok") => {}
        Some("Error") => {
            let message = v["error"].as_str().unwrap_or("");
            ensure(!message.is_empty(), || {
                format!("error record without a reason: {line}")
            })?;
            return Ok(Outcome::failed());
        }
        other => return Err(format!("unknown record status {other:?}")),
    }
    let q = field(&v, "qubits")? as usize;
    let z_devices = q + couplers_by_chip(v["chip"].as_str().unwrap_or(""));
    let xy = field(&v, "xy_lines")? as usize;
    let z = field(&v, "z_lines")? as usize;
    let readout = field(&v, "readout_feedlines")? as usize;
    let coax_lines = field(&v, "coax_lines")? as usize;
    let fdm = field(&v, "fdm_capacity")? as usize;
    let readout_capacity = field(&v, "readout_capacity")? as usize;
    let deepest = if v["one_to_eight"].as_bool() == Some(true) {
        8
    } else {
        4
    };
    ensure(coax_lines == xy + z + readout, || {
        "coax != xy + z + readout".into()
    })?;
    ensure(xy >= q.div_ceil(fdm), || {
        format!("{xy} xy lines cannot hold {q} qubits")
    })?;
    ensure(readout >= q.div_ceil(readout_capacity), || {
        format!("{readout} feedlines cannot hold {q} qubits")
    })?;
    ensure(z >= z_devices.div_ceil(deepest), || {
        format!("{z} z lines cannot hold {z_devices} devices")
    })?;
    let behind: f64 = ["demux_deep", "demux_one_to_two", "demux_direct"]
        .iter()
        .map(|k| field(&v, k))
        .sum::<Result<f64, String>>()?;
    ensure(behind as usize == z_devices, || {
        format!("{behind} devices behind demuxes of {z_devices}")
    })?;
    let dedicated_coax = field(&v, "dedicated_coax")? as usize;
    ensure(
        dedicated_coax == q + z_devices + q.div_ceil(READOUT_FEEDLINE_CAPACITY),
        || format!("dedicated coax {dedicated_coax} for {q} qubits"),
    )?;
    let cost_reduction = field(&v, "dedicated_cost_kusd")? / field(&v, "cost_kusd")?;
    ensure(same(field(&v, "cost_reduction")?, cost_reduction), || {
        "cost reduction disagrees with its costs".into()
    })?;
    Ok(Outcome {
        ok: true,
        cost_reduction,
        coax_reduction: dedicated_coax as f64 / coax_lines as f64,
    })
}
