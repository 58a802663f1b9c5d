//! Command-line arguments.

use std::path::PathBuf;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Water on a 4×4 mesh, standard protocol, warmup on.
    Water16Std,
    /// Mp3d on a 7×8 mesh: a standard run and an ECP run at 400/s.
    Mp3d56Ecp400,
    /// One-worker chaos sweep on Water, 8 nodes, every fault bucket on.
    ChaosW8Mixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Water16Std,
        Workload::Mp3d56Ecp400,
        Workload::ChaosW8Mixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Water16Std => "water16-std",
            Workload::Mp3d56Ecp400 => "mp3d56-ecp400",
            Workload::ChaosW8Mixed => "chaos-w8-mixed",
        }
    }

    /// The seed used when `--seed` is absent: the simulator's default
    /// machine seed, or the chaos campaign seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Water16Std | Workload::Mp3d56Ecp400 => 0xF7C0_3A11,
            Workload::ChaosW8Mixed => 0xc4a0_5eed,
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds the timed loop runs.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the traced mode writes its spans (JSON lines).
    pub spans_out: Option<PathBuf>,
}

const USAGE: &str = "usage: ftbench --workload <water16-std|mp3d56-ecp400|chaos-w8-mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]";

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Returns a message with the usage line for a missing workload, an
    /// unknown flag or an unparsable value.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut spans_out = None;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |what: &str| format!("bad {what} `{value}`\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(parse_u64(&value).ok_or_else(|| bad("seed"))?),
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("seconds"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    }
                }
                "--spans-out" => spans_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            }
        }
        let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
        Ok(Args {
            workload,
            seed: seed.unwrap_or_else(|| workload.default_seed()),
            seconds,
            trace,
            spans_out,
        })
    }
}

/// Decimal or `0x` hexadecimal.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload mp3d56-ecp400 --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Mp3d56Ecp400);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn defaults_to_the_recorded_seeds() {
        assert_eq!(parse("--workload water16-std").unwrap().seed, 0xF7C0_3A11);
        assert_eq!(
            parse("--workload chaos-w8-mixed").unwrap().seed,
            0xc4a0_5eed
        );
        assert_eq!(
            parse("--workload water16-std --seed 0xc4a05eed")
                .unwrap()
                .seed,
            0xc4a0_5eed
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload water16-std --trace 2").is_err());
        assert!(parse("--workload water16-std --seconds 0").is_err());
        assert!(parse("--workload water16-std --frob 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
