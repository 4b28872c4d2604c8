//! Cartesian parameter sweeps: one declarative grid, many jobs, executed
//! in parallel, one [`Artifact`] per cell.

use crate::artifact::Artifact;
use crate::error::ConfigError;
use crate::job::{JobBuilder, ValidJob};
use dpc_codec::Encoding;
use dpc_coordinator::TransportKind;
use dpc_obs::{Counter, Event, RecorderHandle};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One sweep axis: a parameter name, its length, and how cell `idx`
/// sets the parameter on a job.
#[derive(Clone)]
struct Axis {
    name: &'static str,
    len: usize,
    apply: Arc<dyn Fn(JobBuilder, usize) -> JobBuilder + Send + Sync>,
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.name, self.len)
    }
}

/// A cartesian parameter grid over a base job.
///
/// Axes expand row-major in the order they were added (the last axis
/// varies fastest), so results line up with nested loops over the same
/// lists. Cells execute concurrently on scoped threads, bounded by
/// [`Sweep::parallelism`]; each cell is an independent [`ValidJob::run`]
/// whose communication accounting is byte-identical to running that job
/// alone.
///
/// ```no_run
/// use dpc_api::{Job, Sweep};
/// use dpc_coordinator::TransportKind;
/// # let points = dpc_metric::PointSet::new(2);
/// let artifacts = Sweep::grid(Job::median(0, 0).points(points))
///     .k(&[4, 8])
///     .t(&[16, 64])
///     .transports(&[TransportKind::Channel, TransportKind::Mux])
///     .parallelism(4)
///     .run()
///     .unwrap();
/// println!("{}", dpc_api::csv_table(&artifacts));
/// ```
#[derive(Clone, Debug)]
pub struct Sweep {
    base: JobBuilder,
    axes: Vec<Axis>,
    parallelism: usize,
    recorder: RecorderHandle,
}

impl Sweep {
    /// Starts a sweep over `base`; axis values override the base job's
    /// corresponding parameters cell by cell.
    pub fn grid(base: JobBuilder) -> Self {
        Self {
            base,
            axes: Vec::new(),
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            recorder: RecorderHandle::noop(),
        }
    }

    /// Adds an axis named `name` whose cell `idx` calls `set` with
    /// `values[idx]`.
    fn axis<T: Clone + Send + Sync + 'static>(
        mut self,
        name: &'static str,
        values: &[T],
        set: fn(JobBuilder, T) -> JobBuilder,
    ) -> Self {
        let values = values.to_vec();
        self.axes.push(Axis {
            name,
            len: values.len(),
            apply: Arc::new(move |b, idx| set(b, values[idx].clone())),
        });
        self
    }

    /// Adds a `k` axis.
    pub fn k(self, values: &[usize]) -> Self {
        self.axis("k", values, JobBuilder::k)
    }

    /// Adds a `t` axis.
    pub fn t(self, values: &[usize]) -> Self {
        self.axis("t", values, JobBuilder::t)
    }

    /// Adds an `eps` axis.
    pub fn eps(self, values: &[f64]) -> Self {
        self.axis("eps", values, JobBuilder::eps)
    }

    /// Adds a site-count axis.
    pub fn sites(self, values: &[usize]) -> Self {
        self.axis("sites", values, JobBuilder::sites)
    }

    /// Adds a seed axis (repetition with different partitions).
    pub fn seeds(self, values: &[u64]) -> Self {
        self.axis("seed", values, JobBuilder::seed)
    }

    /// Adds a transport-backend axis.
    pub fn transports(self, values: &[TransportKind]) -> Self {
        self.axis("transport", values, JobBuilder::transport)
    }

    /// Adds a sync-cadence axis (continuous jobs).
    pub fn sync_every(self, values: &[u64]) -> Self {
        self.axis("sync_every", values, JobBuilder::sync_every)
    }

    /// Adds a block-size axis (streaming jobs).
    pub fn blocks(self, values: &[usize]) -> Self {
        self.axis("block", values, JobBuilder::block)
    }

    /// Adds a wire-codec axis: the same job at every encoding, tracing
    /// out the bytes ⇄ quality frontier in one grid.
    pub fn encodings(self, values: &[Encoding]) -> Self {
        self.axis("encoding", values, JobBuilder::encoding)
    }

    /// Caps the number of cells executing concurrently.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Attaches an observability recorder: workers emit one
    /// [`dpc_obs::Event::CellDone`] per completed cell (and bump the
    /// `sweep_cells_done` counter) as the grid drains. Completion order
    /// is scheduling-dependent; per-cell traces come from the cells'
    /// own job knobs, not from this recorder.
    pub fn recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Number of grid cells (product of axis lengths; 1 with no axes).
    pub fn cells(&self) -> usize {
        self.axes.iter().map(|a| a.len).product()
    }

    /// Expands the grid into validated jobs, row-major.
    ///
    /// All cells are validated *before* anything runs, so a bad corner of
    /// the grid fails fast instead of after hours of sweeping.
    pub fn jobs(&self) -> Result<Vec<ValidJob>, ConfigError> {
        for axis in &self.axes {
            if axis.len == 0 {
                return Err(ConfigError::EmptySweepAxis { axis: axis.name });
            }
        }
        let cells = self.cells();
        let mut jobs = Vec::with_capacity(cells);
        for cell in 0..cells {
            let mut b = self.base.clone();
            // Row-major decode: the last axis varies fastest.
            let mut rem = cell;
            let mut radix = cells;
            for axis in &self.axes {
                radix /= axis.len;
                let idx = rem / radix;
                rem %= radix;
                b = (axis.apply)(b, idx);
            }
            jobs.push(b.validate()?);
        }
        Ok(jobs)
    }

    /// Expands, validates, and executes every cell, returning one
    /// artifact per cell in grid order.
    pub fn run(&self) -> Result<Vec<Artifact>, ConfigError> {
        let jobs = self.jobs()?;
        // run() needs data; fail with a typed error before spawning
        // workers rather than panicking inside one.
        for job in &jobs {
            job.require_data()?;
        }
        let results: Vec<Mutex<Option<Artifact>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.parallelism.min(jobs.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let artifact = jobs[i].run();
                    *results[i].lock().unwrap() = Some(artifact);
                    if self.recorder.enabled() {
                        self.recorder.record(Event::CellDone {
                            cell: i,
                            total: jobs.len(),
                        });
                        self.recorder.add(Counter::SweepCellsDone, 1);
                    }
                });
            }
        });
        Ok(results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every cell ran"))
            .collect())
    }
}

/// Columns shared by [`csv_table`] and [`json_table`].
const TABLE_COLUMNS: &[&str] = &[
    "job",
    "k",
    "t",
    "eps",
    "sites",
    "seed",
    "transport",
    "n",
    "cost",
    "budget",
    "bytes",
    "rounds",
    "network_ms",
    "live_points",
    "syncs",
    // Codec columns last, so pre-codec CSV consumers keep their
    // positional reads (empty for raw cells).
    "encoding",
    "bytes_raw",
];

fn table_row(a: &Artifact) -> Vec<String> {
    vec![
        a.job.clone(),
        a.k.to_string(),
        a.t.to_string(),
        a.eps.to_string(),
        a.sites.to_string(),
        a.seed.to_string(),
        a.transport.clone().unwrap_or_default(),
        a.n.to_string(),
        a.cost.to_string(),
        a.budget.to_string(),
        a.bytes.to_string(),
        a.rounds.to_string(),
        a.network_ms.to_string(),
        a.live_points.map(|v| v.to_string()).unwrap_or_default(),
        a.syncs.map(|v| v.to_string()).unwrap_or_default(),
        a.encoding.clone().unwrap_or_default(),
        a.bytes_raw.map(|v| v.to_string()).unwrap_or_default(),
    ]
}

/// Renders sweep results as a CSV table (header plus one row per cell).
pub fn csv_table(artifacts: &[Artifact]) -> String {
    let mut out = TABLE_COLUMNS.join(",");
    out.push('\n');
    for a in artifacts {
        out.push_str(&table_row(a).join(","));
        out.push('\n');
    }
    out
}

/// Renders sweep results as a JSON array of full artifacts.
pub fn json_table(artifacts: &[Artifact]) -> String {
    let rows: Vec<String> = artifacts.iter().map(Artifact::to_json).collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use dpc_workloads::{gaussian_mixture, MixtureSpec};

    fn base() -> JobBuilder {
        let points = gaussian_mixture(MixtureSpec {
            clusters: 3,
            inliers: 200,
            outliers: 3,
            seed: 5,
            ..Default::default()
        })
        .points;
        Job::median(3, 3).sites(3).points(points)
    }

    #[test]
    fn grid_expands_row_major() {
        let sweep = Sweep::grid(base()).k(&[2, 3]).t(&[0, 1, 2]);
        assert_eq!(sweep.cells(), 6);
        let jobs = sweep.jobs().unwrap();
        assert_eq!(jobs.len(), 6);
        // Last axis (t) varies fastest.
        let artifacts: Vec<(usize, usize)> = jobs
            .iter()
            .map(|j| {
                let a = j.run();
                (a.k, a.t)
            })
            .collect();
        assert_eq!(
            artifacts,
            vec![(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]
        );
    }

    #[test]
    fn parallel_run_preserves_grid_order() {
        let arts = Sweep::grid(base())
            .k(&[2, 3])
            .eps(&[0.5, 1.0])
            .parallelism(4)
            .run()
            .unwrap();
        assert_eq!(arts.len(), 4);
        let keys: Vec<(usize, f64)> = arts.iter().map(|a| (a.k, a.eps)).collect();
        assert_eq!(keys, vec![(2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0)]);
    }

    #[test]
    fn bad_cell_fails_before_anything_runs() {
        let err = Sweep::grid(base()).k(&[2, 0]).jobs().unwrap_err();
        assert_eq!(err, ConfigError::ZeroParam { param: "k" });
        let err = Sweep::grid(base()).k(&[]).jobs().unwrap_err();
        assert_eq!(err, ConfigError::EmptySweepAxis { axis: "k" });
        // A dataless base is a typed error from run(), not a worker panic.
        let err = Sweep::grid(Job::median(2, 1)).k(&[2]).run().unwrap_err();
        assert_eq!(err, ConfigError::MissingData { job: "median" });
    }

    #[test]
    fn encoding_axis_traces_the_frontier() {
        let arts = Sweep::grid(base())
            .encodings(&[Encoding::Raw, Encoding::Rlz])
            .parallelism(2)
            .run()
            .unwrap();
        assert_eq!(arts.len(), 2);
        assert_eq!(arts[0].encoding, None);
        assert_eq!(arts[1].encoding.as_deref(), Some("rlz"));
        // Lossless codec: same solution, and the encoded cell's raw
        // accounting reproduces the raw cell's wire total exactly.
        assert_eq!(arts[0].centers, arts[1].centers);
        assert_eq!(arts[1].bytes_raw, Some(arts[0].bytes));
        assert_eq!(arts[1].quality_delta, Some(0.0));
        let csv = csv_table(&arts);
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with("encoding,bytes_raw"), "{header}");
        assert!(csv.contains(",rlz,"), "{csv}");
    }

    #[test]
    fn tables_cover_every_cell() {
        let arts = Sweep::grid(base()).k(&[2, 3]).parallelism(1).run().unwrap();
        let csv = csv_table(&arts);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("job,k,t,eps,"));
        assert!(lines[1].starts_with("median,2,3,"));
        assert!(lines[2].starts_with("median,3,3,"));
        let json = json_table(&arts);
        assert!(json.starts_with("[{\"schema\":"));
        assert_eq!(json.matches("\"job\":\"median\"").count(), 2);
    }
}
