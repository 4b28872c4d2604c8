//! The unified result type every job run produces.

use crate::data::Dataset;
use dpc_coordinator::CommStats;
use dpc_core::evaluate_on_full_data;
use dpc_metric::{Objective, PointSet};
use dpc_obs::json::{self, dur_to_ms, json_f64, usize_array, usize_vec, Json};
use dpc_obs::MetricsSummary;

/// Version tag embedded in the artifact JSON; bump on schema breaks.
///
/// v2: round objects gained `dropouts`, `retries` and `degraded`
/// (fault-injection accounting).
pub const ARTIFACT_SCHEMA: &str = "dpc.artifact/v2";

/// Per-round communication/compute breakdown.
///
/// Byte counts are kept **per site** (index = site id) so consumers can
/// check exact wire behaviour — summed views are one `iter().sum()` away
/// and the CLI renders them that way.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundBreakdown {
    /// Bytes from the coordinator to each site.
    pub bytes_down: Vec<usize>,
    /// Bytes from each site to the coordinator.
    pub bytes_up: Vec<usize>,
    /// Slowest site compute this round, milliseconds.
    pub max_site_ms: f64,
    /// Coordinator compute planning this round, milliseconds.
    pub coordinator_ms: f64,
    /// Simulated network time of this round under the link model, ms.
    pub network_ms: f64,
    /// Sites whose reply never arrived this round (after all retries).
    pub dropouts: usize,
    /// Failed delivery attempts the runtime retried or abandoned.
    pub retries: usize,
    /// Whether the coordinator planned this round over a strict subset
    /// of the sites.
    pub degraded: bool,
}

impl RoundBreakdown {
    /// Total upstream bytes this round.
    pub fn up_total(&self) -> usize {
        self.bytes_up.iter().sum()
    }

    /// Total downstream bytes this round.
    pub fn down_total(&self) -> usize {
        self.bytes_down.iter().sum()
    }
}

/// Flattens protocol accounting into artifact rows.
pub(crate) fn round_breakdowns(stats: &CommStats) -> Vec<RoundBreakdown> {
    stats
        .rounds
        .iter()
        .map(|r| RoundBreakdown {
            bytes_down: r.coordinator_to_sites.clone(),
            bytes_up: r.sites_to_coordinator.clone(),
            max_site_ms: dur_to_ms(r.max_site_compute()),
            coordinator_ms: dur_to_ms(r.coordinator_compute),
            network_ms: dur_to_ms(r.network),
            dropouts: r.dropouts,
            retries: r.retries,
            degraded: r.degraded,
        })
        .collect()
}

/// The result of one job run: solution, communication accounting,
/// simulated network time, and the parameters that produced it — one
/// schema shared by the CLI, the bench harness and the sweep table
/// writers.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The protocol that ran (the job's [`crate::Job::name`]).
    pub job: String,
    /// Number of centers requested.
    pub k: usize,
    /// Outlier budget `t`.
    pub t: usize,
    /// Outlier relaxation ε the job ran with.
    pub eps: f64,
    /// Simulated sites.
    pub sites: usize,
    /// Partition/workload seed.
    pub seed: u64,
    /// Input size (points or nodes).
    pub n: usize,
    /// Chosen centers, as coordinate rows.
    pub centers: Vec<Vec<f64>>,
    /// Objective value at the output budget (protocol-specific
    /// evaluation; see the job docs).
    pub cost: f64,
    /// Exclusion budget used in the final evaluation.
    pub budget: usize,
    /// Total bytes on the simulated wire (0 for centralized jobs).
    pub bytes: usize,
    /// Protocol rounds executed (summed over syncs for continuous jobs).
    pub rounds: usize,
    /// Per-round breakdown, in execution order.
    pub round_stats: Vec<RoundBreakdown>,
    /// Transport backend the job was configured with (`None` for jobs
    /// that move no messages).
    pub transport: Option<String>,
    /// Total simulated network time under the configured link model, ms.
    pub network_ms: f64,
    /// Streaming jobs: live summary entries at the end of the run.
    pub live_points: Option<usize>,
    /// Continuous jobs: number of syncs executed.
    pub syncs: Option<usize>,
    /// Streaming jobs: ingest+solve throughput in points per second.
    pub points_per_sec: Option<f64>,
    /// Aggregated observability metrics, present when the job ran with
    /// metrics collection enabled ([`crate::JobBuilder::metrics`]). Additive:
    /// the schema stays [`ARTIFACT_SCHEMA`] because readers that ignore
    /// unknown fields are unaffected.
    pub metrics: Option<MetricsSummary>,
    /// Wire codec the protocol messages travelled through
    /// ([`crate::JobBuilder::encoding`]). Absent for raw runs, so their
    /// serialized form is byte-identical to pre-codec artifacts.
    pub encoding: Option<String>,
    /// Pre-codec payload bytes the same run would have moved raw
    /// (present exactly when [`Self::encoding`] is; [`Self::bytes`]
    /// already holds the compressed total).
    pub bytes_raw: Option<usize>,
    /// Measured objective delta against an exact raw run, signed
    /// relative: `(cost - cost_raw) / cost_raw`. `Some(0.0)` for
    /// lossless codecs; absent for raw runs and for lossy streaming
    /// sessions (the stream cannot be replayed for a baseline).
    pub quality_delta: Option<f64>,
}

impl Artifact {
    /// Total upstream bytes across all rounds.
    pub fn upstream_bytes(&self) -> usize {
        self.round_stats.iter().map(RoundBreakdown::up_total).sum()
    }

    /// Total downstream bytes across all rounds.
    pub fn downstream_bytes(&self) -> usize {
        self.round_stats
            .iter()
            .map(RoundBreakdown::down_total)
            .sum()
    }

    /// Rounds the coordinator completed over a strict subset of sites.
    pub fn degraded_rounds(&self) -> usize {
        self.round_stats.iter().filter(|r| r.degraded).count()
    }

    /// Total sites dropped across all rounds (after retries).
    pub fn total_dropouts(&self) -> usize {
        self.round_stats.iter().map(|r| r.dropouts).sum()
    }

    /// Raw-over-compressed byte ratio of an encoded run (1.0 for raw
    /// runs, where no codec frame existed to shrink anything).
    pub fn compression_ratio(&self) -> f64 {
        match self.bytes_raw {
            Some(raw) if self.bytes > 0 => raw as f64 / self.bytes as f64,
            _ => 1.0,
        }
    }

    /// On-demand quality evaluation: re-scores this artifact's centers
    /// against point data at an arbitrary exclusion budget, returning
    /// `(cost, points actually excluded)`. Returns `None` for node-shaped
    /// data (use the Monte-Carlo estimators in `dpc_uncertain` there).
    pub fn evaluate(
        &self,
        data: &Dataset,
        budget: usize,
        objective: Objective,
    ) -> Option<(f64, usize)> {
        let shards = data.point_view()?;
        let centers = PointSet::from_rows(&self.centers);
        Some(evaluate_on_full_data(&shards, &centers, budget, objective))
    }

    /// Plain-text rendering (the CLI's non-JSON output).
    pub fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}: n={}, cost={:.6} (budget {}), comm={}B over {} rounds\n",
            self.job, self.n, self.cost, self.budget, self.bytes, self.rounds
        ));
        if let Some(t) = &self.transport {
            out.push_str(&format!(
                "transport: {t}, simulated network {:.3}ms\n",
                self.network_ms
            ));
        }
        if let (Some(e), Some(raw)) = (&self.encoding, self.bytes_raw) {
            out.push_str(&format!(
                "encoding: {e}, bytes {raw}B -> {}B ({:.2}x)",
                self.bytes,
                self.compression_ratio()
            ));
            if let Some(qd) = self.quality_delta {
                out.push_str(&format!(", quality delta {:+.4}%", qd * 100.0));
            }
            out.push('\n');
        }
        if let Some(lp) = self.live_points {
            out.push_str(&format!("live summary points: {lp}\n"));
        }
        if let Some(pps) = self.points_per_sec {
            out.push_str(&format!("throughput: {pps:.0} points/sec\n"));
        }
        if let Some(s) = self.syncs {
            out.push_str(&format!("syncs: {s}\n"));
        }
        if let Some(m) = &self.metrics {
            out.push_str(&m.render());
        }
        for (i, r) in self.round_stats.iter().enumerate() {
            out.push_str(&format!(
                "round {i}: up={}B down={}B site={:.3}ms coord={:.3}ms net={:.3}ms",
                r.up_total(),
                r.down_total(),
                r.max_site_ms,
                r.coordinator_ms,
                r.network_ms
            ));
            if r.degraded || r.retries > 0 {
                out.push_str(&format!(
                    " [degraded: {} dropped, {} retries]",
                    r.dropouts, r.retries
                ));
            }
            out.push('\n');
        }
        out.push_str("centers:\n");
        for c in &self.centers {
            let coords: Vec<String> = c.iter().map(|v| format!("{v}")).collect();
            out.push_str(&format!("  [{}]\n", coords.join(", ")));
        }
        out
    }

    /// Serializes the artifact to its canonical JSON schema
    /// ([`ARTIFACT_SCHEMA`]). Optional fields are omitted when absent;
    /// key order is fixed, so equal artifacts serialize identically.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"schema\":\"{}\",\"job\":\"{}\",\"k\":{},\"t\":{},\"eps\":{},\"sites\":{},\"seed\":{},\"n\":{}",
            ARTIFACT_SCHEMA,
            json::escape(&self.job),
            self.k,
            self.t,
            json_f64(self.eps),
            self.sites,
            self.seed,
            self.n
        ));
        s.push_str(&format!(
            ",\"cost\":{},\"budget\":{},\"bytes\":{},\"rounds\":{},\"network_ms\":{}",
            json_f64(self.cost),
            self.budget,
            self.bytes,
            self.rounds,
            json_f64(self.network_ms)
        ));
        if let Some(t) = &self.transport {
            s.push_str(&format!(",\"transport\":\"{}\"", json::escape(t)));
        }
        if let Some(e) = &self.encoding {
            s.push_str(&format!(",\"encoding\":\"{}\"", json::escape(e)));
        }
        if let Some(raw) = self.bytes_raw {
            s.push_str(&format!(",\"bytes_raw\":{raw}"));
        }
        if let Some(qd) = self.quality_delta {
            s.push_str(&format!(",\"quality_delta\":{}", json_f64(qd)));
        }
        if let Some(lp) = self.live_points {
            s.push_str(&format!(",\"live_points\":{lp}"));
        }
        if let Some(sy) = self.syncs {
            s.push_str(&format!(",\"syncs\":{sy}"));
        }
        if let Some(pps) = self.points_per_sec {
            s.push_str(&format!(",\"points_per_sec\":{}", json_f64(pps)));
        }
        if let Some(m) = &self.metrics {
            s.push_str(&format!(",\"metrics\":{}", m.to_json()));
        }
        s.push_str(",\"round_stats\":[");
        for (i, r) in self.round_stats.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"bytes_down\":{},\"bytes_up\":{},\"max_site_ms\":{},\"coordinator_ms\":{},\"network_ms\":{},\"dropouts\":{},\"retries\":{},\"degraded\":{}}}",
                usize_array(&r.bytes_down),
                usize_array(&r.bytes_up),
                json_f64(r.max_site_ms),
                json_f64(r.coordinator_ms),
                json_f64(r.network_ms),
                r.dropouts,
                r.retries,
                r.degraded
            ));
        }
        s.push_str("],\"centers\":[");
        for (i, c) in self.centers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let coords: Vec<String> = c.iter().map(|&v| json_f64(v)).collect();
            s.push_str(&format!("[{}]", coords.join(",")));
        }
        s.push_str("]}");
        s
    }

    /// Reads an artifact back from [`Self::to_json`] output.
    pub fn from_json(doc: &str) -> Result<Artifact, String> {
        let v = json::parse(doc)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(format!(
                "unsupported artifact schema '{schema}' (expected {ARTIFACT_SCHEMA})"
            ));
        }
        let str_field = |name: &str| -> Result<String, String> {
            Ok(v.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing field '{name}'"))?
                .to_string())
        };
        let num = |name: &str| -> Result<f64, String> {
            // Non-finite values serialize as null (JSON has no inf/NaN).
            match v.get(name) {
                Some(Json::Null) => Ok(f64::NAN),
                Some(j) => j
                    .as_f64()
                    .ok_or_else(|| format!("non-numeric field '{name}'")),
                None => Err(format!("missing numeric field '{name}'")),
            }
        };
        let uint = |name: &str| -> Result<usize, String> {
            v.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("missing integer field '{name}'"))
        };
        let rounds_arr = v
            .get("round_stats")
            .and_then(Json::as_arr)
            .ok_or("missing round_stats")?;
        let mut round_stats = Vec::with_capacity(rounds_arr.len());
        for r in rounds_arr {
            round_stats.push(RoundBreakdown {
                bytes_down: usize_vec(r.get("bytes_down"))?,
                bytes_up: usize_vec(r.get("bytes_up"))?,
                max_site_ms: round_f64(r, "max_site_ms")?,
                coordinator_ms: round_f64(r, "coordinator_ms")?,
                network_ms: round_f64(r, "network_ms")?,
                dropouts: r
                    .get("dropouts")
                    .and_then(Json::as_usize)
                    .ok_or("missing dropouts")?,
                retries: r
                    .get("retries")
                    .and_then(Json::as_usize)
                    .ok_or("missing retries")?,
                degraded: r
                    .get("degraded")
                    .and_then(Json::as_bool)
                    .ok_or("missing degraded")?,
            });
        }
        let centers_arr = v
            .get("centers")
            .and_then(Json::as_arr)
            .ok_or("missing centers")?;
        let mut centers = Vec::with_capacity(centers_arr.len());
        for c in centers_arr {
            let row = c.as_arr().ok_or("center row is not an array")?;
            centers.push(
                row.iter()
                    .map(|x| match x {
                        Json::Null => Ok(f64::NAN),
                        _ => x.as_f64().ok_or("non-numeric coordinate"),
                    })
                    .collect::<Result<Vec<f64>, _>>()?,
            );
        }
        Ok(Artifact {
            job: str_field("job")?,
            k: uint("k")?,
            t: uint("t")?,
            eps: num("eps")?,
            sites: uint("sites")?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("missing integer field 'seed'")?,
            n: uint("n")?,
            centers,
            cost: num("cost")?,
            budget: uint("budget")?,
            bytes: uint("bytes")?,
            rounds: uint("rounds")?,
            round_stats,
            transport: v.get("transport").and_then(Json::as_str).map(String::from),
            network_ms: num("network_ms")?,
            live_points: v.get("live_points").and_then(Json::as_usize),
            syncs: v.get("syncs").and_then(Json::as_usize),
            points_per_sec: v.get("points_per_sec").and_then(Json::as_f64),
            metrics: match v.get("metrics") {
                Some(m) => Some(MetricsSummary::from_json(m)?),
                None => None,
            },
            encoding: v.get("encoding").and_then(Json::as_str).map(String::from),
            bytes_raw: v.get("bytes_raw").and_then(Json::as_usize),
            quality_delta: v.get("quality_delta").and_then(Json::as_f64),
        })
    }
}

/// Reads one (possibly `null`) millisecond field of a round object.
fn round_f64(r: &Json, name: &str) -> Result<f64, String> {
    match r.get(name) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(j) => j.as_f64().ok_or_else(|| format!("bad {name}")),
        None => Err(format!("missing {name}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Artifact {
        Artifact {
            job: "median".into(),
            k: 2,
            t: 1,
            eps: 0.5,
            sites: 3,
            seed: 42,
            n: 41,
            centers: vec![vec![1.0, 2.0], vec![-3.25, 0.0]],
            cost: 3.5,
            budget: 2,
            bytes: 100,
            rounds: 2,
            round_stats: vec![RoundBreakdown {
                bytes_down: vec![5, 5, 5],
                bytes_up: vec![20, 30, 35],
                max_site_ms: 1.5,
                coordinator_ms: 0.5,
                network_ms: 2.25,
                dropouts: 1,
                retries: 2,
                degraded: true,
            }],
            transport: Some("tcp".into()),
            network_ms: 2.25,
            live_points: Some(7),
            syncs: None,
            points_per_sec: Some(1000.0),
            metrics: None,
            encoding: None,
            bytes_raw: None,
            quality_delta: None,
        }
    }

    #[test]
    fn json_round_trip_is_stable() {
        let a = sample();
        let doc = a.to_json();
        let b = Artifact::from_json(&doc).unwrap();
        // Serialized form is the equality we care about (fixed key order
        // means equal artifacts produce byte-equal documents).
        assert_eq!(doc, b.to_json());
        assert_eq!(b.centers, a.centers);
        assert_eq!(b.round_stats, a.round_stats);
        assert_eq!(b.transport.as_deref(), Some("tcp"));
        assert_eq!(b.syncs, None);
    }

    #[test]
    fn optional_fields_are_omitted() {
        let mut a = sample();
        a.transport = None;
        a.live_points = None;
        a.points_per_sec = None;
        let doc = a.to_json();
        assert!(!doc.contains("transport"));
        assert!(!doc.contains("live_points"));
        assert!(!doc.contains("points_per_sec"));
        assert!(Artifact::from_json(&doc).is_ok());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut a = sample();
        a.cost = f64::INFINITY;
        a.centers[0][1] = f64::NAN;
        let doc = a.to_json();
        assert!(doc.contains("\"cost\":null"), "{doc}");
        assert!(doc.contains("[1,null]"), "{doc}");
        // Still valid JSON, still the document-level identity.
        let back = Artifact::from_json(&doc).unwrap();
        assert!(back.cost.is_nan());
        assert!(back.centers[0][1].is_nan());
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn seed_round_trips_exactly_beyond_f64() {
        let mut a = sample();
        a.seed = 9_007_199_254_740_993; // 2^53 + 1: f64 would round it
        let back = Artifact::from_json(&a.to_json()).unwrap();
        assert_eq!(back.seed, 9_007_199_254_740_993);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let doc = sample().to_json().replace(ARTIFACT_SCHEMA, "other/v9");
        assert!(Artifact::from_json(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn fault_fields_round_trip_and_render() {
        let a = sample();
        let doc = a.to_json();
        assert!(
            doc.contains("\"dropouts\":1,\"retries\":2,\"degraded\":true"),
            "{doc}"
        );
        let back = Artifact::from_json(&doc).unwrap();
        assert_eq!(back.round_stats[0].dropouts, 1);
        assert_eq!(back.round_stats[0].retries, 2);
        assert!(back.round_stats[0].degraded);
        assert_eq!(back.degraded_rounds(), 1);
        assert_eq!(back.total_dropouts(), 1);
        assert!(a.text().contains("[degraded: 1 dropped, 2 retries]"));
        // A clean round renders without the fault suffix.
        let mut clean = sample();
        clean.round_stats[0].dropouts = 0;
        clean.round_stats[0].retries = 0;
        clean.round_stats[0].degraded = false;
        assert!(!clean.text().contains("degraded"));
    }

    #[test]
    fn metrics_section_round_trips_and_renders() {
        let mut a = sample();
        let mut m = MetricsSummary {
            plan_ns: 1_000_000,
            site_compute_ns: 2_000_000,
            network_ns: 3_000_000,
            total_bytes: 100,
            down_bytes: 15,
            up_bytes: 85,
            rounds: 2,
            dropouts: 1,
            retries: 2,
            degraded_rounds: 1,
            round_network_p50_ns: 1_500_000,
            round_network_p90_ns: 3_000_000,
            round_network_max_ns: 3_000_000,
            ..MetricsSummary::default()
        };
        m.counters[0] = 41;
        a.metrics = Some(m);
        let doc = a.to_json();
        assert!(doc.contains("\"metrics\":{\"plan_ns\":1000000"), "{doc}");
        let back = Artifact::from_json(&doc).unwrap();
        assert_eq!(back.metrics, a.metrics);
        assert_eq!(back.to_json(), doc);
        assert!(a.text().contains("metrics: 2 rounds"), "{}", a.text());
        // Absent metrics stays absent.
        let plain = sample().to_json();
        assert!(!plain.contains("\"metrics\""));
        assert_eq!(Artifact::from_json(&plain).unwrap().metrics, None);
    }

    #[test]
    fn codec_fields_round_trip_render_and_stay_absent_for_raw() {
        // Raw artifacts never mention the codec — byte-compatibility
        // with pre-codec consumers and goldens.
        let raw_doc = sample().to_json();
        assert!(!raw_doc.contains("encoding"), "{raw_doc}");
        assert!(!raw_doc.contains("bytes_raw"), "{raw_doc}");
        assert!(!raw_doc.contains("quality_delta"), "{raw_doc}");
        assert_eq!(sample().compression_ratio(), 1.0);
        assert!(!sample().text().contains("encoding:"));

        let mut a = sample();
        a.encoding = Some("f32".into());
        a.bytes_raw = Some(250);
        a.quality_delta = Some(0.0125);
        let doc = a.to_json();
        assert!(
            doc.contains("\"encoding\":\"f32\",\"bytes_raw\":250,\"quality_delta\":0.0125"),
            "{doc}"
        );
        let back = Artifact::from_json(&doc).unwrap();
        assert_eq!(back.encoding.as_deref(), Some("f32"));
        assert_eq!(back.bytes_raw, Some(250));
        assert_eq!(back.quality_delta, Some(0.0125));
        assert_eq!(back.to_json(), doc);
        assert!((a.compression_ratio() - 2.5).abs() < 1e-12);
        let text = a.text();
        assert!(
            text.contains("encoding: f32, bytes 250B -> 100B (2.50x), quality delta +1.2500%"),
            "{text}"
        );
    }

    #[test]
    fn text_rendering_sums_per_site_bytes() {
        let t = sample().text();
        assert!(t.contains("round 0: up=85B down=15B"), "{t}");
        assert!(
            t.contains("transport: tcp, simulated network 2.250ms"),
            "{t}"
        );
        assert!(t.contains("[1, 2]"), "{t}");
    }
}
