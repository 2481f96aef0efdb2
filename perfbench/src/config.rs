//! The benchmark's fixed configuration: limits, sizes, the serve mix and
//! ladder, and the committed reference answers. Every value has one
//! setting; `BENCHMARK.json` holds the metric names, units and bounds and
//! `perfbench/layers.json` the layer map.

/// Per-operation latency limit of an MTTF; one over it is stopped and
/// counted as failed, at the time it was stopped.
pub const MTTF_LIMIT_S: f64 = 2.0;
/// Limit of one cold non-MTTF batch; over it the run fails.
pub const ANALYZE_LIMIT_S: f64 = 60.0;
/// The serve latency limit, on p99 and on the lateness of the last 1% of
/// requests of a ladder rung.
pub const SERVE_P99_LIMIT_S: f64 = 0.25;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// analyze_cold's set-up takes tens of milliseconds and starts a process,
/// so it is repeated more often for a steady median.
pub const ANALYZE_SETUP_REPS: usize = 9;

/// analyze_cold: points of the seeded time grid, reference times included.
pub const ANALYZE_GRID_POINTS: usize = 32;
/// analyze_cold: the grid spans `[1, ANALYZE_T_MAX]` hours.
pub const ANALYZE_T_MAX: f64 = 1000.0;

/// sweep_rerate: the times of point unavailability lie in
/// `[SWEEP_T_MAX / 100, SWEEP_T_MAX]` hours.
pub const SWEEP_T_MAX: f64 = 1000.0;

/// What one scheduled serve request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A steady-state or cached MTTF read of a pre-warmed model.
    Hit,
    /// Point unavailability of dds_scaled(3) at fresh times.
    DdsMiss,
    /// Point unavailability of rcs_scaled(2) at one fresh time.
    RcsMiss,
    /// Point unavailability of rcs_stiff(3) at one fresh time.
    StiffMiss,
    /// `load` of a generated model as text, then one cold query on it.
    Write,
    /// The same query on the model a write just loaded, from another
    /// connection of the pool, due right after the write.
    WriteRead,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Hit,
        Kind::DdsMiss,
        Kind::RcsMiss,
        Kind::StiffMiss,
        Kind::Write,
        Kind::WriteRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::DdsMiss => "dds_miss",
            Kind::RcsMiss => "rcs_miss",
            Kind::StiffMiss => "stiff_miss",
            Kind::Write => "write",
            Kind::WriteRead => "write_read",
        }
    }

    /// A memo-miss read, whose cost is a transient solve at fresh times.
    pub fn is_miss(self) -> bool {
        matches!(self, Kind::DdsMiss | Kind::RcsMiss | Kind::StiffMiss)
    }
}

// The serve mix. No recorded traffic of the daemon exists to derive it
// from, so every value below is an assumption, chosen for the reason
// beside it.

/// Requests per 100 dealt from a shuffled deck; each write also brings
/// its `WriteRead`, so the deck holds 97 and the reads the other 3.
/// Read-mostly, as a dashboard over a few architectures is. The
/// rcs_stiff(3) misses are the slowest kind and 2% of the requests, so
/// the p99 lands at the middle of their latencies rather than on the edge
/// between two kinds of request.
pub const DECK: [(Kind, usize); 5] = [
    (Kind::Hit, 79),
    (Kind::DdsMiss, 12),
    (Kind::RcsMiss, 1),
    (Kind::StiffMiss, 2),
    (Kind::Write, 3),
];
/// Fresh time points per dds_scaled(3) miss: a small batch, as a client
/// plotting a few points asks.
pub const DDS_MISS_POINTS: usize = 4;
/// Fresh dds miss times lie in `[1, SERVE_T_MAX)` hours.
pub const SERVE_T_MAX: f64 = 1000.0;
/// The window of an rcs_scaled(2) miss's single fresh time, in hours.
/// Past a few hours the transient solve of that chain stops at its steady
/// state, so its cost (~30 ms on a 2-core machine) hardly depends on the
/// time asked.
pub const RCS_MISS_T: (f64, f64) = (90.0, 100.0);
/// The window of an rcs_stiff(3) miss's single fresh time, in hours. The
/// chain is small and stiff: its solve is compute-bound and its cost grows
/// in proportion to the time asked (~65 ms at 200 h on a 2-core machine,
/// twice an rcs_scaled(2) miss), so a narrow window keeps the cost of one
/// such miss nearly the same whatever the seed, and these misses alone
/// make the top 2% of latencies.
pub const STIFF_MISS_T: (f64, f64) = (190.0, 200.0);
/// Generated models the writes cycle through, each loaded under a fresh
/// name.
pub const GENERATED_MODELS: usize = 64;
/// Largest intermediate automaton a generated model may have, so one
/// write costs milliseconds, not seconds.
pub const WRITE_MAX_STATES: usize = 2000;
/// A write's read is due this long after the write, at most, so it
/// often arrives while the write's cold query is still building.
pub const WRITE_READ_DELAY_S: f64 = 0.002;
/// Heavy misses re-evaluated directly per kind and run (each costs a
/// transient solve in the generator).
pub const VERIFY_CAP: usize = 3;
/// The fixed offered rate of `serve_p50_ms` and `serve_p99_ms`: well
/// below the rate where the ladder crosses the latency limit, so light
/// reads seldom queue behind a heavy miss and the p99 is the rcs_stiff(3)
/// misses' own latency.
pub const FIXED_RPS: f64 = 200.0;
/// The share of `--seconds` the fixed-rate phase takes, split evenly over
/// the servers of the set-ups; the traced phase takes the rest.
pub const FIXED_SHARE: f64 = 2.0 / 3.0;
/// The `serve_max_rps` ladder: offered rates
/// `LADDER_START_RPS × LADDER_RATIO^k` for `k < LADDER_RUNGS`, bisected
/// for the rung where the score crosses the limit, and the crossing
/// interpolated between the rungs around it. Steps of 15% resolve a
/// capacity change well inside the metric's bound. The rungs span 800 to
/// 3,700 req/s, around the 1,100 to 2,400 req/s where the ladder crosses
/// on a 2-core machine as fast as it runs from one hour to the next, with
/// room above for a server more than twice as fast.
pub const LADDER_START_RPS: f64 = 800.0;
pub const LADDER_RATIO: f64 = 1.15;
pub const LADDER_RUNGS: usize = 12;
/// Each rung, and the warm-up before them, lasts this share of
/// `--seconds`; a bisection runs four rungs at most.
pub const LADDER_RUNG_SHARE: f64 = 1.0 / 8.0;

/// The reference times every grid contains, in hours.
pub const REFERENCE_TIMES: [f64; 3] = [10.0, 100.0, 1000.0];

/// Tolerance of the reference checks: `|got - want| <= ABS + REL·|want|`.
pub const REFERENCE_REL: f64 = 1e-6;
pub const REFERENCE_ABS: f64 = 1e-15;

/// The committed answers of one benchmark model; the curves are at
/// [`REFERENCE_TIMES`].
#[derive(Debug)]
pub struct Reference {
    pub model: &'static str,
    pub steady_state_availability: f64,
    pub steady_state_unavailability: f64,
    pub reliability: [f64; 3],
    pub unreliability_with_repair: [f64; 3],
    pub point_unavailability: [f64; 3],
    /// What the default solver reaches when left to finish; on
    /// rcs_scaled(2) that takes about 270 s, far over [`MTTF_LIMIT_S`].
    pub mttf: f64,
}

/// Computed with the adaptive transient engine and cross-checked against
/// the exact global-rate engine (largest relative gap 1.1e-8, on the
/// ~1e-10 values of rcs_scaled(2)).
pub const REFERENCES: [Reference; 3] = [
    Reference {
        model: "dds_scaled(3)",
        steady_state_availability: 0.9999975018352185,
        steady_state_unavailability: 2.4981647815354164e-6,
        reliability: [0.9998755743253492, 0.988113372797416, 0.4197226428113826],
        unreliability_with_repair: [
            2.247256701752788e-5,
            0.0002471351876858945,
            0.0024909882848911857,
        ],
        point_unavailability: [
            2.496909388819809e-6,
            2.4981647805568587e-6,
            2.4981647805568587e-6,
        ],
        mttf: 400547.4815677194,
    },
    Reference {
        model: "rcs_stiff(3)",
        steady_state_availability: 0.9999999667000009,
        steady_state_unavailability: 3.329999914077265e-8,
        reliability: [0.9999667005544284, 0.9996670554278284, 0.9966755276522654],
        unreliability_with_repair: [
            3.329944556115402e-5,
            0.0003329445616536796,
            0.003324461699219233,
        ],
        point_unavailability: [
            3.3299999140769746e-8,
            3.329999914076974e-8,
            3.3299999140768336e-8,
        ],
        mttf: 300300.3003002854,
    },
    Reference {
        model: "rcs_scaled(2)",
        steady_state_availability: 0.9999999881026189,
        steady_state_unavailability: 1.1897381086054712e-8,
        reliability: [0.9999999994534542, 0.9999999452959112, 0.9999944799758548],
        unreliability_with_repair: [
            4.021312044407052e-10,
            9.852871042148061e-9,
            1.1019280708648209e-7,
        ],
        point_unavailability: [
            2.1840092490834128e-10,
            5.487122513456761e-10,
            5.738510871139238e-10,
        ],
        mttf: 932787496.7676039,
    },
];

pub fn reference(model: &str) -> &'static Reference {
    REFERENCES
        .iter()
        .find(|r| r.model == model)
        .unwrap_or_else(|| panic!("no reference answers for `{model}`"))
}

impl Reference {
    /// The cold batch at the reference times in measure order: A, U, then
    /// R, UR and PU each across the times.
    pub fn batch_by_kind(&self) -> Vec<f64> {
        let mut v = vec![
            self.steady_state_availability,
            self.steady_state_unavailability,
        ];
        v.extend(self.reliability);
        v.extend(self.unreliability_with_repair);
        v.extend(self.point_unavailability);
        v
    }
}

/// `|a - b| <= REFERENCE_ABS + REFERENCE_REL * |b|`.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REFERENCE_ABS + REFERENCE_REL * b.abs()
}
