//! Seeded workload inputs through the per-workload public builders.

use tia_fabric::ProcessingElement;
use tia_isa::Params;
use tia_workloads::{
    arg_max, bst, dot_product, filter, mean, merge, string_search, udiv, Built, PeFactory, Scale,
    WorkloadError, WorkloadKind,
};

/// Which inputs the workloads are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSeed {
    /// Every workload keeps its `Config::paper()`/`Config::test()`
    /// seed, so a paper-scale sweep reproduces the committed `results/`.
    Default,
    /// The eight workloads with random inputs draw them from this seed;
    /// `gcd` and `stream` have no random input and stay fixed.
    Seeded(u64),
}

impl InputSeed {
    /// `--seed 0` selects the default inputs; any other value seeds
    /// the random workloads.
    pub fn from_arg(seed: u64) -> Self {
        match seed {
            0 => InputSeed::Default,
            n => InputSeed::Seeded(n),
        }
    }

    /// The label folded into the measurement store's sweep context.
    /// The default keeps the label the repository's own sweeps use, so
    /// its store keys match theirs.
    pub fn scale_label(self, scale: Scale) -> String {
        let base = tia_bench::scale_label(scale);
        match self {
            InputSeed::Default => base.to_string(),
            InputSeed::Seeded(n) => format!("{base}/seed={n}"),
        }
    }
}

/// Builds `kind` at `scale` from `seed`'s inputs over `factory`.
///
/// # Errors
///
/// Propagates the builder's assembly, validation and wiring errors.
pub fn build<P, F>(
    kind: WorkloadKind,
    scale: Scale,
    seed: InputSeed,
    params: &Params,
    factory: &mut F,
) -> Result<Built<P>, WorkloadError>
where
    P: ProcessingElement,
    F: PeFactory<P>,
{
    let InputSeed::Seeded(seed) = seed else {
        return kind.build(params, scale, factory);
    };
    macro_rules! seeded {
        ($module:ident :: $config:ident) => {{
            let base = match scale {
                Scale::Test => $module::$config::test(),
                Scale::Paper => $module::$config::paper(),
            };
            $module::build(params, &$module::$config { seed, ..base }, factory)
        }};
    }
    match kind {
        WorkloadKind::Gcd | WorkloadKind::Stream => kind.build(params, scale, factory),
        WorkloadKind::Bst => seeded!(bst::BstConfig),
        WorkloadKind::Mean => seeded!(mean::MeanConfig),
        WorkloadKind::ArgMax => seeded!(arg_max::ArgMaxConfig),
        WorkloadKind::DotProduct => seeded!(dot_product::DotProductConfig),
        WorkloadKind::Filter => seeded!(filter::FilterConfig),
        WorkloadKind::Merge => seeded!(merge::MergeConfig),
        WorkloadKind::StringSearch => seeded!(string_search::StringSearchConfig),
        WorkloadKind::Udiv => seeded!(udiv::UdivConfig),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_sim::FuncPe;
    use tia_workloads::ALL_WORKLOADS;

    fn golden_expected(kind: WorkloadKind, seed: InputSeed) -> Vec<(u32, u32)> {
        let params = Params::default();
        let mut factory = |p: &Params, prog| FuncPe::new(p, prog);
        let mut built = build(kind, Scale::Test, seed, &params, &mut factory)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        built
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        built.expected
    }

    #[test]
    fn default_seed_is_the_builders_own_input() {
        let params = Params::default();
        for kind in ALL_WORKLOADS {
            let mut factory = |p: &Params, prog| FuncPe::new(p, prog);
            let reference = kind
                .build(&params, Scale::Test, &mut factory)
                .expect("builds");
            assert_eq!(
                golden_expected(kind, InputSeed::Default),
                reference.expected,
                "{kind}"
            );
        }
    }

    #[test]
    fn other_seeds_change_only_the_random_workloads() {
        for kind in ALL_WORKLOADS {
            let fixed = matches!(kind, WorkloadKind::Gcd | WorkloadKind::Stream);
            let default = golden_expected(kind, InputSeed::Default);
            // A single golden value may coincide by chance; three seeds
            // all reproducing it would not.
            let moved = [1, 2, 3]
                .into_iter()
                .any(|n| golden_expected(kind, InputSeed::Seeded(n)) != default);
            assert_eq!(moved, !fixed, "{kind}");
        }
    }

    #[test]
    fn seeds_are_labelled_apart() {
        assert_eq!(InputSeed::from_arg(0).scale_label(Scale::Paper), "paper");
        assert_eq!(
            InputSeed::from_arg(3).scale_label(Scale::Paper),
            "paper/seed=3"
        );
    }
}
