//! The benchmark's workloads and what every run of one needs: the core
//! design, the program image, the session configuration and the golden
//! ISS result the target must reproduce.

use strober::{HubEngine, StroberConfig};
use strober_cores::{build_core, CoreConfig};
use strober_isa::{assemble, programs, Iss};
use strober_rtl::Design;

/// Target-cycle budget of one sampled run (the CLI's default).
pub const MAX_CYCLES: u64 = 200_000_000;

/// Instruction budget of the golden ISS run.
const ISS_BUDGET: u64 = 1_000_000_000;

/// One core × program × sampling-parameter scenario.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The benchmark's name for the scenario.
    pub name: &'static str,
    /// Catalog name of the core.
    pub core: &'static str,
    /// Name of the bundled program (for the host record).
    pub program: &'static str,
    /// Generator of the program's assembly source.
    pub source: fn() -> String,
    /// Reservoir sample size `n`.
    pub samples: usize,
    /// Measurement window length `L`.
    pub replay_length: u32,
    /// Whether the traced run also computes census ground truth.
    pub census: bool,
}

/// The benchmark's workloads. The program parameters match the
/// `strober estimate` catalog, so each scenario is one CLI invocation.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "dhrystone-rok",
        core: "rok",
        program: "dhrystone",
        source: || programs::dhrystone(2800),
        samples: 30,
        replay_length: 128,
        census: false,
    },
    Workload {
        name: "coremark-boum2w",
        core: "boum-2w",
        program: "coremark",
        source: || programs::coremark_like(60),
        samples: 64,
        replay_length: 1024,
        census: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The smoke-test stand-in: same code path (window length, census),
    /// but the smallest core on a short program and a small sample.
    pub fn smoke(self) -> Workload {
        Workload {
            core: "rok-tiny",
            program: "vvadd",
            source: || programs::vvadd(160),
            samples: 8,
            ..self
        }
    }
}

/// The golden-model result the target must reproduce on every op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    /// The program's exit code.
    pub exit_code: u32,
    /// Instructions retired.
    pub instret: u64,
}

/// Everything one benchmark run needs, built once in set-up.
#[derive(Debug)]
pub struct Scenario {
    /// The workload being run.
    pub workload: Workload,
    /// The target core's RTL.
    pub design: Design,
    /// The program image loaded into a fresh DRAM model per op.
    pub image: Vec<u32>,
    /// The session configuration; its seed is the benchmark seed.
    pub config: StroberConfig,
    /// The ISS result for `image`.
    pub golden: Golden,
    /// Replay worker threads (`nproc`).
    pub threads: usize,
}

impl Scenario {
    /// Builds the design, assembles the program and runs the ISS.
    ///
    /// # Errors
    ///
    /// Returns a message if the program does not assemble, faults or
    /// does not halt on the ISS.
    pub fn new(workload: Workload, seed: u64) -> Result<Scenario, String> {
        let core = match workload.core {
            "rok" => CoreConfig::rok(),
            "rok-tiny" => CoreConfig::rok_tiny(),
            "boum-2w" => CoreConfig::boum_2w(),
            other => return Err(format!("unknown core `{other}`")),
        };
        let image = assemble(&(workload.source)())
            .map_err(|e| format!("{}: assembly failed: {e}", workload.program))?
            .words;
        let mut iss = Iss::new(programs::MEM_BYTES);
        iss.load(&image, 0);
        let exit_code = iss
            .run(ISS_BUDGET)
            .map_err(|e| format!("{}: ISS fault: {e}", workload.program))?
            .ok_or_else(|| format!("{}: ISS did not halt", workload.program))?;
        let mut config = StroberConfig {
            replay_length: workload.replay_length,
            sample_size: workload.samples,
            seed,
            ..StroberConfig::default()
        };
        config.platform.hub_engine = HubEngine::Jit;
        Ok(Scenario {
            workload,
            design: build_core(&core),
            image,
            config,
            golden: Golden {
                exit_code,
                instret: iss.instret(),
            },
            threads: strober::StroberFlow::default_parallelism(),
        })
    }
}
