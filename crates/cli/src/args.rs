//! Hand-rolled argument parsing (no external CLI dependency).
//!
//! One table, `FLAGS`, declares every option once: its name, the
//! commands that take it, how `sweep` treats it, and the [`JobBuilder`]
//! setter it calls. Parsing builds the job straight from that table. A
//! setter runs only when its flag was given, so the defaults, the range
//! checks and the no-effect warnings all stay in `dpc::api`.

use dpc::prelude::*;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// A parsed invocation.
#[derive(Debug)]
pub struct Invocation {
    /// Input CSV path or `blobs:` spec.
    pub input: String,
    /// Emit JSON instead of text.
    pub json: bool,
    /// The (dataless) job to run; for `sweep`, the base of every cell.
    pub builder: JobBuilder,
    /// `sweep`: the grid laid over the base job.
    pub grid: Option<Grid>,
}

/// The parsed `sweep` grid: its axes and `--parallelism`, ready to lay
/// over any base job (the input data joins the base after preflight).
pub struct Grid(Vec<GridStep>);

type GridStep = Box<dyn Fn(Sweep) -> Sweep>;

impl Grid {
    /// The sweep over `base`, axes nested in table order (the last axis
    /// varies fastest).
    pub(crate) fn over(&self, base: JobBuilder) -> Sweep {
        self.0
            .iter()
            .fold(Sweep::grid(base), |sweep, step| step(sweep))
    }
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid({} steps)", self.0.len())
    }
}

/// A human-readable parse failure.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage string printed on error / `--help`.
pub const USAGE: &str = "\
usage: dpc <command> [options] <input.csv>

commands:
  median             distributed (k,(1+eps)t)-median   (Algorithm 1)
  means              distributed (k,(1+eps)t)-means
  center             distributed (k,t)-center          (Algorithm 2)
  uncertain-median   uncertain (k,t)-median            (Algorithm 3)
  subquadratic       centralized subquadratic (k,2t)-median (Theorem 3.10)
  stream             streaming (k,t) clustering over rows in arrival order
  sweep <protocol>   cartesian parameter sweep over median|means|center;
                     --k/--t/--eps/--sites/--transport/--encoding accept
                     comma lists (e.g. --k 2,4 --encoding raw,f32); prints
                     a CSV table (or a JSON artifact array with --json)

options:
  --k <int>        number of centers            (default 5)
  --t <int>        outlier budget               (default 0)
  --sites <int>    simulated sites              (default 4)
  --eps <float>    outlier relaxation epsilon   (default 1.0)
  --seed <int>     partition seed               (default 42)
  --delta <float>  counts-only variant delta    (default off)
  --threads <int>  bulk-kernel thread budget inside the solvers, and
                   the shard count serving the sites on either
                   transport (default 1: sites take turns, each with
                   the whole budget; results are identical at any value)
  --one-round      use the 1-round baseline protocol
  --json           emit JSON (includes per-round comm/compute stats)

transport options (distributed commands and stream --sync-every):
  --transport <channel|mux>  message-passing backend (default
                             channel); both serve the sites from
                             --threads shards, so thousands of sites fit
                             in one process: 'channel' calls them in
                             process; 'mux' runs each site behind a
                             Unix socket pair with length-prefixed
                             frames, each shard a poll(2) site loop plus
                             a coordinator loop
  --encoding <enc>           wire codec for protocol messages (default
                             raw): raw keeps the exact bytes; f32
                             quantizes coordinates lossily; rlz keeps
                             them exact. In continuous stream mode both
                             code each summary against the site's
                             previous sync (f32 after quantizing)
  --latency <dur>            simulated one-way per-message latency, e.g.
                             5ms, 250us, 1s (bare numbers are ms)
  --bandwidth <rate>         simulated link bandwidth in bytes/sec with
                             optional k/M/G suffix, e.g. 10M

fault-injection options (distributed commands and stream --sync-every;
seed-deterministic, so identical flags reproduce identical runs):
  --dropout <p>     probability in [0,1) that a delivery attempt to a
                    site fails; protocols degrade to the responding sites
  --fault-seed <n>  seed behind the injected faults     (default 0)
  --timeout <dur>   per-attempt timeout charged to simulated time when a
                    site fails to answer, e.g. 50ms     (default: instant
                    failure detection, no time charged)
  --retries <n>     extra delivery attempts after a failure (default 0)

observability options (all commands; zero overhead when absent):
  --trace <file>           write a structured event trace of the run:
                           one JSON object per line (dpc.trace/v1) that
                           is byte-identical across transport backends
                           for identical seeds
  --trace-format <fmt>     trace serialization: 'jsonl' (default) or
                           'chrome' (a trace-event file for
                           chrome://tracing / Perfetto)
  --metrics                aggregate the run into a metrics digest:
                           appended to the text output and carried in
                           the JSON artifact's 'metrics' section

stream options:
  --block <int>       points per summarized block        (default 256)
  --window <int>      sliding-window length in points    (default off)
  --sync-every <int>  continuous distributed mode: run the 2-round sync
                      protocol across --sites every so many points
  --objective <median|means|center>                      (default median)

sweep options:
  --parallelism <int>  concurrent grid cells (default: one per CPU)

synthetic input:
  in place of <input.csv>, `blobs:` generates a seeded Gaussian-blob
  workload for kernel stress, e.g.
    blobs:n=50000,dim=32,clusters=8,imbalance=1.0,outliers=64,seed=7
  keys: n, dim, clusters, imbalance, outliers, sigma, sep, seed
  (point commands and sweep only; uncertain-median still needs a CSV)
";

/// The job commands.
const JOBS: &[&str] = &[
    "median",
    "means",
    "center",
    "uncertain-median",
    "subquadratic",
    "stream",
];
/// The protocols with a 1-round variant, which are also the ones `sweep`
/// takes.
const BATCH: &[&str] = &["median", "means", "center"];

/// The CLI's `k` and `t` defaults (the API has none: they are arguments
/// of every job constructor).
const K: usize = 5;
const T: usize = 0;

/// How `sweep` treats a flag.
enum InSweep {
    /// A grid step: a comma-list axis, or `--parallelism`.
    Step(fn(&Arg<'_>) -> Result<GridStep, ParseError>),
    /// One value, set on the base job.
    Base,
    /// Not a sweep option.
    Rejected,
}

use InSweep::{Base, Rejected, Step};

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// Takes no value.
    switch: bool,
    /// The job commands that take the flag.
    jobs: &'static [&'static str],
    sweep: InSweep,
    /// Applies the given value to the job under construction.
    set: fn(JobBuilder, &Arg<'_>) -> Result<JobBuilder, ParseError>,
}

const fn flag(
    name: &'static str,
    jobs: &'static [&'static str],
    sweep: InSweep,
    set: fn(JobBuilder, &Arg<'_>) -> Result<JobBuilder, ParseError>,
) -> Flag {
    Flag {
        name,
        switch: false,
        jobs,
        sweep,
        set,
    }
}

const fn switch(
    name: &'static str,
    jobs: &'static [&'static str],
    sweep: InSweep,
    set: fn(JobBuilder, &Arg<'_>) -> Result<JobBuilder, ParseError>,
) -> Flag {
    Flag {
        switch: true,
        ..flag(name, jobs, sweep, set)
    }
}

/// The setter of the flags the parser consumes itself: `--json` picks
/// the output, `--one-round` the job kind, `--parallelism` sizes the
/// sweep's worker pool.
fn consumed(b: JobBuilder, _: &Arg<'_>) -> Result<JobBuilder, ParseError> {
    Ok(b)
}

/// A setter: `set!(k, num)` parses the value with `Arg::num` and calls
/// `JobBuilder::k`.
macro_rules! set {
    ($setter:ident, $parse:ident) => {
        |b, a| Ok(b.$setter(a.$parse()?))
    };
}

/// A sweep axis: `axis!(k, num)` parses a comma list with `Arg::num` and
/// adds it through `Sweep::k`.
macro_rules! axis {
    ($add:ident, $parse:ident) => {
        Step(|a| a.axis(Sweep::$add, |e| e.$parse()))
    };
}

/// Every option, in the order setters run and sweep axes nest.
const FLAGS: &[Flag] = &[
    flag("--k", JOBS, axis!(k, num), set!(k, num)),
    flag("--t", JOBS, axis!(t, num), set!(t, num)),
    flag("--eps", JOBS, axis!(eps, float), set!(eps, float)),
    flag("--sites", JOBS, axis!(sites, num), set!(sites, num)),
    flag(
        "--transport",
        JOBS,
        axis!(transports, transport),
        set!(transport, transport),
    ),
    flag(
        "--encoding",
        JOBS,
        axis!(encodings, encoding),
        set!(encoding, encoding),
    ),
    flag("--seed", JOBS, Base, set!(seed, num)),
    flag("--delta", JOBS, Base, set!(delta, float)),
    flag("--threads", JOBS, Base, set!(threads, positive)),
    flag("--latency", JOBS, Base, set!(link, link)),
    flag("--bandwidth", JOBS, Base, set!(link, link)),
    switch("--one-round", BATCH, Base, consumed),
    switch("--json", JOBS, Base, consumed),
    flag("--dropout", JOBS, Rejected, set!(dropout, float)),
    flag("--fault-seed", JOBS, Rejected, set!(fault_seed, num)),
    flag("--timeout", JOBS, Rejected, set!(timeout, duration)),
    flag("--retries", JOBS, Rejected, set!(retries, num)),
    flag("--trace", JOBS, Rejected, |b, a| Ok(b.trace(a.value))),
    flag(
        "--trace-format",
        JOBS,
        Rejected,
        set!(trace_format, trace_format),
    ),
    switch("--metrics", JOBS, Rejected, |b, _| Ok(b.metrics(true))),
    flag("--block", JOBS, Rejected, set!(block, num)),
    flag("--window", JOBS, Rejected, set!(window, num)),
    flag("--sync-every", JOBS, Rejected, set!(sync_every, num)),
    flag("--objective", JOBS, Rejected, set!(objective, objective)),
    flag("--parallelism", &[], Step(|a| a.parallelism()), consumed),
];

/// The flags an invocation gave: one value per table row (`""` for a
/// given switch).
struct Given<'a>(Vec<Option<&'a str>>);

impl Given<'_> {
    fn arg(&self, name: &str) -> Option<Arg<'_>> {
        let row = FLAGS.iter().position(|f| f.name == name)?;
        self.0[row].map(|value| Arg {
            flag: FLAGS[row].name,
            value,
            given: self,
        })
    }

    /// True when a numeric flag was given a value above zero.
    fn positive(&self, name: &str) -> Result<bool, ParseError> {
        let value = self.arg(name).map(|a| a.num::<u64>()).transpose()?;
        Ok(value.is_some_and(|n| n > 0))
    }
}

/// One given flag value, as its row sees it.
struct Arg<'a> {
    flag: &'static str,
    value: &'a str,
    given: &'a Given<'a>,
}

impl Arg<'_> {
    fn invalid(&self) -> ParseError {
        ParseError(format!("invalid value '{}' for {}", self.value, self.flag))
    }

    fn num<T: FromStr>(&self) -> Result<T, ParseError> {
        self.value.parse().map_err(|_| self.invalid())
    }

    /// `--threads` and `--parallelism` count workers: at least one.
    fn positive(&self) -> Result<usize, ParseError> {
        match self.num()? {
            0 => Err(ParseError(format!("{} must be positive", self.flag))),
            n => Ok(n),
        }
    }

    fn float(&self) -> Result<f64, ParseError> {
        let v: f64 = self.num()?;
        if !v.is_finite() {
            return Err(ParseError(format!("non-finite value for {}", self.flag)));
        }
        Ok(v)
    }

    /// A duration like `5ms`, `250us`, `1.5s` — bare numbers are ms.
    fn duration(&self) -> Result<Duration, ParseError> {
        let s = self.value;
        let (digits, scale) = if let Some(v) = s.strip_suffix("us") {
            (v, 1e-6)
        } else if let Some(v) = s.strip_suffix("ms") {
            (v, 1e-3)
        } else if let Some(v) = s.strip_suffix('s') {
            (v, 1.0)
        } else {
            (s, 1e-3)
        };
        let secs = digits.parse::<f64>().map_err(|_| self.invalid())? * scale;
        // The upper bound both keeps Duration::from_secs_f64 panic-free
        // (it rejects ~1.8e19 s and up) and catches absurd simulations.
        if !secs.is_finite() || !(0.0..=1e9).contains(&secs) {
            return Err(self.invalid());
        }
        Ok(Duration::from_secs_f64(secs))
    }

    /// A byte rate like `1000000`, `500k`, `10M`, `1G` (bytes/sec).
    fn rate(&self) -> Result<f64, ParseError> {
        let s = self.value;
        let (digits, scale) = match s.chars().last() {
            Some('k') => (&s[..s.len() - 1], 1e3),
            Some('M') => (&s[..s.len() - 1], 1e6),
            Some('G') => (&s[..s.len() - 1], 1e9),
            _ => (s, 1.0),
        };
        let v: f64 = digits.parse().map_err(|_| self.invalid())?;
        if !v.is_finite() || v <= 0.0 {
            return Err(ParseError(format!(
                "--bandwidth must be a positive bytes/sec rate, got '{s}'"
            )));
        }
        Ok(v * scale)
    }

    /// The link model `--latency` and `--bandwidth` describe together;
    /// either flag alone keeps the other half ideal.
    fn link(&self) -> Result<LinkModel, ParseError> {
        let ideal = LinkModel::ideal();
        let latency = self.given.arg("--latency").map(|a| a.duration());
        let bandwidth = self.given.arg("--bandwidth").map(|a| a.rate());
        Ok(LinkModel::new(
            latency.transpose()?.unwrap_or(ideal.latency),
            bandwidth.transpose()?.unwrap_or(ideal.bandwidth),
        ))
    }

    fn choice<T: Copy>(&self, options: &[(&str, T)]) -> Result<T, ParseError> {
        let names: Vec<&str> = options.iter().map(|&(name, _)| name).collect();
        options
            .iter()
            .find(|&&(name, _)| name == self.value)
            .map(|&(_, v)| v)
            .ok_or_else(|| ParseError(format!("{} ({})", self.invalid(), names.join("|"))))
    }

    fn transport(&self) -> Result<TransportKind, ParseError> {
        use TransportKind::*;
        self.choice(&[("channel", Channel), ("mux", Mux)])
    }

    fn objective(&self) -> Result<Objective, ParseError> {
        use Objective::*;
        self.choice(&[("median", Median), ("means", Means), ("center", Center)])
    }

    fn trace_format(&self) -> Result<TraceFormat, ParseError> {
        use TraceFormat::*;
        self.choice(&[("jsonl", Jsonl), ("chrome", Chrome)])
    }

    fn encoding(&self) -> Result<Encoding, ParseError> {
        self.choice(&Encoding::ALL.map(|e| (e.name(), e)))
    }

    /// A grid axis from a comma list, every element parsed up front.
    fn axis<T: 'static>(
        &self,
        add: fn(Sweep, &[T]) -> Sweep,
        elem: fn(&Arg<'_>) -> Result<T, ParseError>,
    ) -> Result<GridStep, ParseError> {
        let values = self
            .value
            .split(',')
            .map(|value| elem(&Arg { value, ..*self }))
            .collect::<Result<Vec<T>, _>>()?;
        Ok(Box::new(move |sweep| add(sweep, &values)))
    }

    fn parallelism(&self) -> Result<GridStep, ParseError> {
        let workers = self.positive()?;
        Ok(Box::new(move |sweep| sweep.parallelism(workers)))
    }
}

/// The job `command` names, in the kind its flags select: `--one-round`
/// picks the 1-round baseline, `--sync-every` above zero the continuous
/// stream.
fn job_kind(command: &str, given: &Given<'_>) -> Result<JobBuilder, ParseError> {
    let batch = |objective, two_round: fn(usize, usize) -> JobBuilder| {
        if given.arg("--one-round").is_some() {
            Job::one_round(objective, K, T)
        } else {
            two_round(K, T)
        }
    };
    Ok(match command {
        "median" => batch(Objective::Median, Job::median),
        "means" => batch(Objective::Means, Job::means),
        "center" => batch(Objective::Center, Job::center),
        "uncertain-median" => Job::uncertain_median(K, T),
        "subquadratic" => Job::subquadratic(K, T),
        "stream" if given.positive("--sync-every")? => {
            if given.positive("--window")? {
                return Err(ParseError(
                    "--window and --sync-every are mutually exclusive".into(),
                ));
            }
            Job::continuous(K, T)
        }
        "stream" => Job::stream(K, T),
        other => unreachable!("'{other}' is not a job command"),
    })
}

/// Parses `argv[1..]`.
pub fn parse_args(args: &[String]) -> Result<Invocation, ParseError> {
    let command = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => return Err(ParseError(USAGE.to_string())),
        Some(c) => c,
    };
    let sweep = command == "sweep";
    let (job, rest) = if sweep {
        match args.get(1).map(String::as_str) {
            Some(p) if BATCH.contains(&p) => (p, &args[2..]),
            Some(p) => {
                return Err(ParseError(format!(
                    "sweep supports median|means|center, not '{p}'"
                )))
            }
            None => {
                return Err(ParseError(
                    "sweep needs a protocol: dpc sweep <median|means|center> ...".into(),
                ))
            }
        }
    } else if JOBS.contains(&command) {
        (command, &args[1..])
    } else {
        return Err(ParseError(format!("unknown command '{command}'")));
    };

    let mut given = Given(vec![None; FLAGS.len()]);
    let mut input = None;
    let mut rest = rest.iter();
    while let Some(a) = rest.next() {
        let Some(row) = FLAGS.iter().position(|f| f.name == a) else {
            if a.starts_with("--") {
                return Err(ParseError(format!("unknown option '{a}'")));
            }
            if input.replace(a.clone()).is_some() {
                return Err(ParseError(format!("unexpected extra argument '{a}'")));
            }
            continue;
        };
        let f = &FLAGS[row];
        let takes = if sweep {
            !matches!(f.sweep, Rejected)
        } else {
            f.jobs.contains(&job)
        };
        if !takes {
            return Err(ParseError(format!(
                "{} does not apply to '{command}'",
                f.name
            )));
        }
        given.0[row] = Some(if f.switch {
            ""
        } else {
            rest.next()
                .ok_or_else(|| ParseError(format!("missing value after '{a}'")))?
        });
    }
    let input = input.ok_or_else(|| ParseError("missing input CSV path".into()))?;

    let mut builder = job_kind(job, &given)?;
    let mut steps = Vec::new();
    for (f, value) in FLAGS.iter().zip(&given.0) {
        let Some(value) = *value else { continue };
        let arg = Arg {
            flag: f.name,
            value,
            given: &given,
        };
        match &f.sweep {
            Step(step) if sweep => steps.push(step(&arg)?),
            _ => builder = (f.set)(builder, &arg)?,
        }
    }
    Ok(Invocation {
        input,
        json: given.arg("--json").is_some(),
        builder,
        grid: sweep.then(|| Grid(steps)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn parse(parts: &[&str]) -> Result<Invocation, ParseError> {
        parse_args(&sv(parts))
    }

    /// The parsed builder, compared through `Debug` (which shows every
    /// knob, its "was set" marker and any no-effect warning queued).
    fn job(parts: &[&str]) -> String {
        format!("{:?}", parse(parts).unwrap().builder)
    }

    fn built(b: JobBuilder) -> String {
        format!("{b:?}")
    }

    /// The parsed grid over the parsed base, with every cell's job.
    fn grid(parts: &[&str]) -> String {
        let inv = parse(parts).unwrap();
        let sweep = inv.grid.expect("a sweep").over(inv.builder);
        format!("{sweep:?} {:?}", sweep.jobs().unwrap())
    }

    fn grid_of(sweep: Sweep) -> String {
        format!("{sweep:?} {:?}", sweep.jobs().unwrap())
    }

    /// Refused with exit code 2: at parse time or by the API's preflight
    /// validation.
    fn refused(parts: &[&str]) -> bool {
        parse(parts).map_or(true, |inv| crate::run::preflight(&inv).is_err())
    }

    #[test]
    fn every_flag_row_sets_its_builder_knob() {
        let ms = Duration::from_millis;
        let cases: Vec<(&[&str], &str, Option<&str>, JobBuilder)> = vec![
            (&["median"], "--k", Some("7"), Job::median(5, 0).k(7)),
            (&["median"], "--t", Some("3"), Job::median(5, 0).t(3)),
            (
                &["median"],
                "--eps",
                Some("0.5"),
                Job::median(5, 0).eps(0.5),
            ),
            (
                &["median"],
                "--sites",
                Some("9"),
                Job::median(5, 0).sites(9),
            ),
            (
                &["median"],
                "--transport",
                Some("channel"),
                Job::median(5, 0).transport(TransportKind::Channel),
            ),
            (
                &["subquadratic"],
                "--encoding",
                Some("raw"),
                Job::subquadratic(5, 0).encoding(Encoding::Raw),
            ),
            (&["means"], "--seed", Some("9"), Job::means(5, 0).seed(9)),
            (
                &["stream"],
                "--delta",
                Some("0"),
                Job::stream(5, 0).delta(0.0),
            ),
            (
                &["center"],
                "--threads",
                Some("3"),
                Job::center(5, 0).threads(3),
            ),
            (
                &["median"],
                "--latency",
                Some("5ms"),
                Job::median(5, 0).link(LinkModel::new(ms(5), f64::INFINITY)),
            ),
            (
                &["median"],
                "--bandwidth",
                Some("1k"),
                Job::median(5, 0).link(LinkModel::new(Duration::ZERO, 1e3)),
            ),
            (
                &["means"],
                "--one-round",
                None,
                Job::one_round(Objective::Means, 5, 0),
            ),
            (&["median"], "--json", None, Job::median(5, 0)),
            (
                &["median"],
                "--dropout",
                Some("0.1"),
                Job::median(5, 0).dropout(0.1),
            ),
            (
                &["stream"],
                "--fault-seed",
                Some("2"),
                Job::stream(5, 0).fault_seed(2),
            ),
            (
                &["median"],
                "--timeout",
                Some("50ms"),
                Job::median(5, 0).timeout(ms(50)),
            ),
            (
                &["median"],
                "--retries",
                Some("2"),
                Job::median(5, 0).retries(2),
            ),
            (
                &["median"],
                "--trace",
                Some("t.jsonl"),
                Job::median(5, 0).trace("t.jsonl"),
            ),
            (
                &["median"],
                "--trace-format",
                Some("chrome"),
                Job::median(5, 0).trace_format(TraceFormat::Chrome),
            ),
            (
                &["median"],
                "--metrics",
                None,
                Job::median(5, 0).metrics(true),
            ),
            (
                &["stream"],
                "--block",
                Some("64"),
                Job::stream(5, 0).block(64),
            ),
            (
                &["median"],
                "--window",
                Some("64"),
                Job::median(5, 0).window(64),
            ),
            (
                &["stream"],
                "--sync-every",
                Some("100"),
                Job::continuous(5, 0).sync_every(100),
            ),
            (
                &["stream"],
                "--objective",
                Some("center"),
                Job::stream(5, 0).objective(Objective::Center),
            ),
            (
                &["sweep", "median"],
                "--parallelism",
                Some("3"),
                Job::median(5, 0),
            ),
        ];
        for (cmd, flag, value, expected) in &cases {
            let mut argv = cmd.to_vec();
            argv.push(flag);
            argv.extend(value);
            argv.push("in.csv");
            assert_eq!(job(&argv), built(expected.clone()), "{argv:?}");
        }
        // The cases cover the table, row for row.
        let tested: Vec<&str> = cases.iter().map(|c| c.1).collect();
        let rows: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        assert_eq!(tested, rows);
    }

    #[test]
    fn usage_and_table_agree() {
        let mut in_usage: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        in_usage.sort_unstable();
        in_usage.dedup();
        let mut rows: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        rows.sort_unstable();
        assert_eq!(in_usage, rows);
    }

    #[test]
    fn parses_full_invocation() {
        let inv = parse(&[
            "median", "--k", "7", "--t", "12", "--sites", "3", "--eps", "0.5", "--seed", "9",
            "--json", "data.csv",
        ])
        .unwrap();
        assert!(inv.json && inv.grid.is_none());
        assert_eq!(inv.input, "data.csv");
        assert_eq!(
            built(inv.builder),
            built(Job::median(7, 12).sites(3).eps(0.5).seed(9))
        );
    }

    #[test]
    fn defaults_applied() {
        let inv = parse(&["center", "x.csv"]).unwrap();
        assert_eq!(built(inv.builder), built(Job::center(5, 0)));
        assert!(!inv.json && inv.grid.is_none());
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse(&["fit", "x.csv"]).is_err());
        assert!(parse(&["median", "--bogus", "x.csv"]).is_err());
        assert!(parse(&["median", "--k"]).is_err());
        assert!(parse(&["median"]).is_err());
        assert!(parse(&["median", "a.csv", "b.csv"]).is_err());
        assert!(parse(&["median", "--parallelism", "2", "x.csv"]).is_err());
        // Range checks belong to the API's validation.
        assert!(refused(&["median", "--k", "0", "x.csv"]));
        assert!(refused(&["median", "--sites", "0", "x.csv"]));
        assert!(refused(&["median", "--eps", "-1", "x.csv"]));
    }

    #[test]
    fn help_returns_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.0.contains("usage"));
        assert_eq!(parse(&[]).unwrap_err().0, USAGE);
    }

    #[test]
    fn stream_flags() {
        assert_eq!(
            job(&[
                "stream",
                "--k",
                "3",
                "--t",
                "8",
                "--block",
                "64",
                "--window",
                "512",
                "--objective",
                "means",
                "s.csv",
            ]),
            built(
                Job::stream(3, 8)
                    .block(64)
                    .window(512)
                    .objective(Objective::Means)
            )
        );
        assert_eq!(job(&["stream", "s.csv"]), built(Job::stream(5, 0)));
    }

    #[test]
    fn stream_flag_validation() {
        // Window smaller than one block.
        assert!(refused(&[
            "stream", "--block", "64", "--window", "32", "s.csv"
        ]));
        // Window and continuous mode together.
        assert!(parse(&["stream", "--window", "512", "--sync-every", "100", "s.csv"]).is_err());
        // Continuous center objective.
        assert!(refused(&[
            "stream",
            "--sync-every",
            "100",
            "--objective",
            "center",
            "s.csv"
        ]));
        // Bad objective name.
        assert!(parse(&["stream", "--objective", "mode", "s.csv"]).is_err());
        assert!(refused(&["stream", "--block", "0", "s.csv"]));
    }

    #[test]
    fn transport_flags() {
        let ms = Duration::from_millis;
        assert_eq!(
            job(&[
                "median",
                "--transport",
                "mux",
                "--latency",
                "5ms",
                "--bandwidth",
                "10M",
                "x.csv",
            ]),
            built(
                Job::median(5, 0)
                    .transport(TransportKind::Mux)
                    .link(LinkModel::new(ms(5), 10e6))
            )
        );
        assert_eq!(
            job(&["median", "--transport", "channel", "x.csv"]),
            built(Job::median(5, 0).transport(TransportKind::Channel))
        );
        // Duration forms and bandwidth suffixes.
        for (flag, value, link) in [
            (
                "--latency",
                "250us",
                LinkModel::new(Duration::from_micros(250), f64::INFINITY),
            ),
            ("--latency", "2", LinkModel::new(ms(2), f64::INFINITY)),
            (
                "--latency",
                "1.5s",
                LinkModel::new(Duration::from_secs_f64(1.5), f64::INFINITY),
            ),
            ("--bandwidth", "500k", LinkModel::new(Duration::ZERO, 5e5)),
        ] {
            assert_eq!(
                job(&["median", flag, value, "x.csv"]),
                built(Job::median(5, 0).link(link))
            );
        }
        // Rejections.
        assert!(parse(&["median", "--latency", "-1ms", "x.csv"]).is_err());
        // Durations beyond Duration::from_secs_f64's range must be a
        // ParseError, not a panic.
        assert!(parse(&["median", "--latency", "1e20s", "x.csv"]).is_err());
        assert!(parse(&["median", "--bandwidth", "0", "x.csv"]).is_err());
        assert!(parse(&["median", "--bandwidth", "fast", "x.csv"]).is_err());
    }

    #[test]
    fn fault_flags() {
        assert_eq!(
            job(&[
                "median",
                "--dropout",
                "0.1",
                "--fault-seed",
                "7",
                "--timeout",
                "50ms",
                "--retries",
                "3",
                "x.csv",
            ]),
            built(
                Job::median(5, 0)
                    .dropout(0.1)
                    .fault_seed(7)
                    .timeout(Duration::from_millis(50))
                    .retries(3)
            )
        );
        // Rejections.
        assert!(refused(&["median", "--dropout", "1.0", "x.csv"]));
        assert!(refused(&["median", "--dropout", "-0.1", "x.csv"]));
        assert!(parse(&["median", "--timeout", "soon", "x.csv"]).is_err());
    }

    #[test]
    fn observability_flags() {
        assert_eq!(
            job(&[
                "median",
                "--trace",
                "run.jsonl",
                "--trace-format",
                "chrome",
                "--metrics",
                "x.csv",
            ]),
            built(
                Job::median(5, 0)
                    .trace("run.jsonl")
                    .trace_format(TraceFormat::Chrome)
                    .metrics(true)
            )
        );
        assert_eq!(
            job(&["median", "--trace-format", "jsonl", "x.csv"]),
            built(Job::median(5, 0).trace_format(TraceFormat::Jsonl))
        );
        // Rejections.
        assert!(parse(&["median", "--trace-format", "xml", "x.csv"]).is_err());
        assert!(parse(&["median", "--trace", "x.csv"]).is_err());
    }

    #[test]
    fn sweep_parses_comma_lists() {
        let parts = [
            "sweep",
            "median",
            "--k",
            "2,4",
            "--t",
            "1,8",
            "--transport",
            "channel,mux",
            "--sites",
            "3",
            "--parallelism",
            "2",
            "--seed",
            "9",
            "grid.csv",
        ];
        let inv = parse(&parts).unwrap();
        assert_eq!(inv.input, "grid.csv");
        assert_eq!(built(inv.builder), built(Job::median(5, 0).seed(9)));
        use TransportKind::{Channel, Mux};
        let expected = Sweep::grid(Job::median(5, 0).seed(9))
            .k(&[2, 4])
            .t(&[1, 8])
            .sites(&[3])
            .transports(&[Channel, Mux])
            .parallelism(2);
        assert_eq!(expected.cells(), 8);
        assert_eq!(grid(&parts), grid_of(expected));
    }

    #[test]
    fn sweep_defaults_and_rejections() {
        let inv = parse(&["sweep", "center", "x.csv"]).unwrap();
        assert_eq!(built(inv.builder.clone()), built(Job::center(5, 0)));
        assert_eq!(inv.grid.unwrap().over(inv.builder).cells(), 1);
        // Needs a protocol, and a sweepable one.
        assert!(parse(&["sweep"]).is_err());
        assert!(parse(&["sweep", "stream", "x.csv"]).is_err());
        assert!(parse(&["sweep", "uncertain-median", "x.csv"]).is_err());
        // Bad list element.
        assert!(parse(&["sweep", "median", "--k", "2,x", "a.csv"]).is_err());
        // Missing input.
        assert!(parse(&["sweep", "median", "--k", "2"]).is_err());
        assert!(parse(&["sweep", "median", "--parallelism", "0", "a.csv"]).is_err());
        // Flags outside the sweep column.
        assert!(parse(&["sweep", "median", "--block", "64", "a.csv"]).is_err());
        assert!(parse(&["sweep", "median", "--metrics", "a.csv"]).is_err());
    }

    #[test]
    fn encoding_flags() {
        assert_eq!(
            job(&["median", "--encoding", "f32", "x.csv"]),
            built(Job::median(5, 0).encoding(Encoding::F32))
        );
        // Stream continuous mode takes it too.
        assert_eq!(
            job(&[
                "stream",
                "--sync-every",
                "100",
                "--encoding",
                "rlz",
                "s.csv",
            ]),
            built(
                Job::continuous(5, 0)
                    .sync_every(100)
                    .encoding(Encoding::Rlz)
            )
        );
        // Sweep axis: comma list.
        use Encoding::{Raw, Rlz, F32};
        assert_eq!(
            grid(&["sweep", "median", "--encoding", "raw,f32,rlz", "g.csv"]),
            grid_of(Sweep::grid(Job::median(5, 0)).encodings(&[Raw, F32, Rlz]))
        );
        // Rejections name every accepted mode.
        for bad in ["gzip", "f16", "delta"] {
            let err = parse(&["median", "--encoding", bad, "x.csv"]).unwrap_err();
            assert_eq!(
                err.0,
                format!("invalid value '{bad}' for --encoding (raw|f32|rlz)")
            );
        }
        assert!(parse(&["sweep", "median", "--encoding", "raw,zip", "g.csv"]).is_err());
        // So do transport rejections.
        for bad in ["tcp", "udp"] {
            let err = parse(&["median", "--transport", bad, "x.csv"]).unwrap_err();
            assert_eq!(
                err.0,
                format!("invalid value '{bad}' for --transport (channel|mux)")
            );
        }
    }

    #[test]
    fn threads_flag() {
        assert_eq!(
            job(&["median", "--threads", "4", "x.csv"]),
            built(Job::median(5, 0).threads(4))
        );
        assert_eq!(
            job(&["sweep", "median", "--threads", "2", "x.csv"]),
            built(Job::median(5, 0).threads(2))
        );
        // Zero is a parse error on every command, sweep included.
        assert!(parse(&["median", "--threads", "0", "x.csv"]).is_err());
        assert!(parse(&["sweep", "median", "--threads", "0", "x.csv"]).is_err());
    }

    #[test]
    fn blobs_spec_is_a_valid_input_argument() {
        let inv = parse(&["median", "--k", "3", "blobs:n=100,dim=8"]).unwrap();
        assert_eq!(inv.input, "blobs:n=100,dim=8");
    }

    #[test]
    fn one_round_and_delta() {
        assert_eq!(
            job(&["center", "--one-round", "x.csv"]),
            built(Job::one_round(Objective::Center, 5, 0))
        );
        assert_eq!(
            job(&["sweep", "means", "--one-round", "x.csv"]),
            built(Job::one_round(Objective::Means, 5, 0))
        );
        assert_eq!(
            job(&["median", "--delta", "0.25", "x.csv"]),
            built(Job::median(5, 0).delta(0.25))
        );
        assert!(refused(&["median", "--delta", "-1", "x.csv"]));
        // Only the protocols with a 1-round variant take the flag.
        for cmd in ["stream", "uncertain-median", "subquadratic"] {
            assert!(parse(&[cmd, "--one-round", "x.csv"]).is_err(), "{cmd}");
        }
    }
}
