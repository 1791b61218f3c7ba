//! The protocol registry: the one grammar for `<P>`, parsed once per
//! invocation, and the one dispatch that builds the protocol a spec names
//! together with its [`WordCodec`](cil_sim::WordCodec).
//!
//! ```text
//! <P> := two | fig2 | fig2-literal | fig2-1w1r | fig3 | naive
//!      | n:<count> | kvalued:<k> | det:<rule> | mutant:<name>
//! ```
//!
//! Every range check lives here, so a spec that parses can be built:
//! `n:<count>` and `naive` need at least two processors, `kvalued:<k>`
//! needs `k >= 2`, and input values must lie in the family's value domain.
//! The four model mutants break the register model that every engine
//! asserts on purpose, so only an [`AuditSpec`] can name them.

use crate::args::{parse_inputs, Args};
use cil_audit::{LintMutant, MutantKind};
use cil_core::deterministic::DetRule;
use cil_sim::{Protocol, Val};

/// The specs `cil audit all` and `cil lint all` cover: every built-in
/// protocol family, including a Theorem 4 deterministic victim and the
/// k-valued composite.
pub const AUDIT_ALL: &[&str] = &[
    "two",
    "fig2",
    "fig2-literal",
    "fig2-1w1r",
    "fig3",
    "naive",
    "det:always-adopt",
    "n:4",
    "kvalued:4",
];

/// The specs `cil prove --check-cert` tries when it infers a certificate's
/// protocol from the name embedded in the certificate.
pub fn cert_candidates() -> Vec<String> {
    let mut specs: Vec<String> = [
        "two",
        "fig2",
        "fig2-literal",
        "fig2-1w1r",
        "fig3",
        "naive",
        "mutant:racy",
    ]
    .map(String::from)
    .to_vec();
    specs.extend((2..=8).map(|n| format!("n:{n}")));
    specs.extend((2..=8).map(|k| format!("kvalued:{k}")));
    specs.extend(DetRule::ALL.map(|rule| format!("det:{rule}")));
    specs
}

/// How far the symbolic walk explores protocols with unbounded counters
/// (the §5 `num` field): enough to exercise every program location several
/// times while keeping `cil audit all` instant.
const UNBOUNDED_WALK_STATES: usize = 600;

/// A protocol every engine can run: each obeys the paper's register model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// `two`: Fig. 1, the two-processor protocol.
    Two,
    /// `fig2`: Fig. 2 (§5, corrected rule) on three processors.
    Fig2,
    /// `fig2-literal`: Fig. 2 exactly as printed, on three processors.
    Fig2Literal,
    /// `fig2-1w1r`: Fig. 2 over one-writer one-reader registers.
    Fig2OneReader,
    /// `fig3`: Fig. 3 (§6, bounded registers).
    Fig3,
    /// `naive`: the §5 strawman on this many processors.
    Naive(usize),
    /// `n:<count>`: Fig. 2 on `count` processors.
    N(usize),
    /// `kvalued:<k>`: Theorem 5's composite over `two` (`n == 2`) or over
    /// `n:<n>`.
    KValued {
        /// Number of input values.
        k: u64,
        /// Number of processors.
        n: usize,
    },
    /// `det:<rule>`: a Theorem 4 deterministic victim.
    Det(DetRule),
    /// `mutant:racy`: the planted interleaving-sensitive consistency bug.
    Racy,
    /// `mutant:dead-write` / `mutant:width-waste`: model-compliant lint
    /// triggers.
    Lint(LintMutant),
}

impl ProtocolSpec {
    /// Parses `<P>`. `inputs`, when the subcommand was given some, set the
    /// processor count of `naive` and `kvalued:<k>` and must lie in the
    /// family's value domain. Without them `naive` runs three processors
    /// (the §5 adversary needs three) and `kvalued:<k>` runs over `two`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names, bad parameters, and inputs
    /// outside the value domain.
    pub fn parse(text: &str, inputs: Option<&[Val]>) -> Result<Self, String> {
        let count = |default| inputs.map_or(default, <[Val]>::len);
        let spec = match text {
            "two" => Self::Two,
            "fig2" => Self::Fig2,
            "fig2-literal" => Self::Fig2Literal,
            "fig2-1w1r" => Self::Fig2OneReader,
            "fig3" => Self::Fig3,
            "naive" => Self::Naive(processors(text, count(3))?),
            _ => match text.split_once(':') {
                Some(("n", c)) => {
                    let n = c
                        .parse()
                        .map_err(|_| format!("bad processor count in '{text}'"))?;
                    Self::N(processors(text, n)?)
                }
                Some(("kvalued", k)) => match k.parse() {
                    Ok(k) if k >= 2 => Self::KValued {
                        k,
                        n: processors(text, count(2))?,
                    },
                    _ => return Err(format!("bad k in '{text}': k must be an integer >= 2")),
                },
                Some(("det", rule)) => Self::Det(parse_rule(rule)?),
                Some(("mutant", "racy")) => Self::Racy,
                Some(("mutant", name)) => match LintMutant::parse(name) {
                    Some(kind) => Self::Lint(kind),
                    None if MutantKind::parse(name).is_some() => {
                        return Err(format!(
                            "'{text}' breaks the register model on purpose and every engine \
                             asserts that model, so only `cil audit` and `cil lint` accept it"
                        ))
                    }
                    None => return Err(unknown_mutant(text)),
                },
                _ => return Err(format!("unknown protocol '{text}' (see cil help)")),
            },
        };
        if let Some(values) = inputs {
            spec.check_values("--inputs", values)?;
        }
        Ok(spec)
    }

    /// Parses `<P>` from `text` with the `--inputs` of `args`, when given.
    ///
    /// # Errors
    ///
    /// As [`ProtocolSpec::parse`], plus malformed `--inputs`.
    pub fn from_args(text: &str, args: &Args) -> Result<Self, String> {
        let inputs = args.get("inputs").map(parse_inputs).transpose()?;
        Self::parse(text, inputs.as_deref())
    }

    /// Checks that `values` (named `what` in the message) lie in the
    /// family's value domain: `0..k` for `kvalued:<k>`, below 2^15 (the
    /// packed preference field) for the Fig. 2 family, and `a`/`b` for
    /// every other family, whose registers hold nothing else.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first value outside the domain.
    pub fn check_values(self, what: &str, values: &[Val]) -> Result<(), String> {
        let (bound, why) = match self {
            Self::KValued { k, .. } => (k, "kvalued:<k> takes 0..k"),
            _ if self.fig2_family() => (1 << 15, "Fig. 2 packs preferences below 2^15"),
            _ => (2, "this family's registers hold only a and b"),
        };
        match values.iter().find(|v| v.0 >= bound) {
            Some(v) => Err(format!(
                "{what}: value {} is outside 0..{bound} ({why})",
                v.0
            )),
            None => Ok(()),
        }
    }

    /// Fig. 2 and its variants: the family with the unbounded `num` field.
    fn fig2_family(self) -> bool {
        matches!(
            self,
            Self::Fig2 | Self::Fig2Literal | Self::Fig2OneReader | Self::N(_)
        )
    }
}

/// Rejects processor counts below two.
fn processors(text: &str, n: usize) -> Result<usize, String> {
    if n < 2 {
        return Err(format!("'{text}' needs at least 2 processors, got {n}"));
    }
    Ok(n)
}

/// Parses a Theorem 4 rule name (`det:<rule>`, `theorem4 --rule`).
///
/// # Errors
///
/// Returns a message listing the valid rules.
pub fn parse_rule(name: &str) -> Result<DetRule, String> {
    DetRule::ALL
        .into_iter()
        .find(|rule| rule.to_string() == name)
        .ok_or_else(|| {
            let all = DetRule::ALL.map(|rule| rule.to_string()).join(" | ");
            format!("unknown rule '{name}' (one of: {all})")
        })
}

/// The error for an unrecognized `mutant:<M>` spec, listing every mutant.
fn unknown_mutant(spec: &str) -> String {
    format!(
        "unknown mutant in '{spec}' (one of: racy | {} | {})",
        LintMutant::all().map(|k| k.key()).join(" | "),
        MutantKind::all().map(|k| k.key()).join(" | ")
    )
}

/// Rejects protocols with more processors than a `u64` has bits: the
/// exact engines (check, survival, prove, `conc explore --cross-check`)
/// keep one activity bit per processor in a `u64` mask.
///
/// # Errors
///
/// Returns a message naming the processor count.
pub fn fits_active_mask<P: Protocol>(protocol: &P) -> Result<(), String> {
    match protocol.processes() {
        n if n > 64 => Err(format!(
            "{n} processors: this command keeps one activity bit per processor \
             in a 64-bit mask, so it takes at most 64"
        )),
        _ => Ok(()),
    }
}

/// What `cil audit` and `cil lint` accept: every [`ProtocolSpec`] plus the
/// four model mutants, which break the register model on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditSpec {
    /// A protocol that obeys the register model.
    Engine(ProtocolSpec),
    /// `mutant:<M>` for a [`MutantKind`].
    Model(MutantKind),
}

impl AuditSpec {
    /// Parses `<P>` or `mutant:<M>`. Audits take no `--inputs`, so `naive`
    /// is walked on three processors and `kvalued:<k>` over `two`.
    ///
    /// # Errors
    ///
    /// As [`ProtocolSpec::parse`].
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.strip_prefix("mutant:").and_then(MutantKind::parse) {
            Some(kind) => Ok(Self::Model(kind)),
            None => ProtocolSpec::parse(text, None).map(Self::Engine),
        }
    }

    /// The symbolic walk's state budget, bounded for the Fig. 2 family
    /// (whose `num` counter is unbounded).
    pub fn walk_budget(self) -> Option<usize> {
        matches!(self, Self::Engine(p) if p.fig2_family()).then_some(UNBOUNDED_WALK_STATES)
    }

    /// The inputs each processor is audited with, when not `{a, b}`:
    /// `0..k` for `kvalued:<k>`.
    pub fn audit_inputs(self) -> Option<Vec<Val>> {
        match self {
            Self::Engine(ProtocolSpec::KValued { k, .. }) => Some((0..k).map(Val).collect()),
            _ => None,
        }
    }
}

/// Builds the protocol a [`ProtocolSpec`] names and its word codec, and
/// calls `$f(&protocol, &codec, $args..)`: [`PackCodec`](cil_sim::PackCodec)
/// for every family but `kvalued:<k>`, whose heterogeneous register bank
/// takes a [`KRegCodec`](cil_core::KRegCodec). This is the one match over
/// the registry; adding a family touches only this module and `cil help`.
macro_rules! with_spec {
    ($spec:expr, $f:ident($($arg:expr),* $(,)?)) => {{
        use ::cil_core::{
            deterministic::DetTwo, kvalued::KValued, n_unbounded::NUnbounded,
            n_unbounded_1w1r::NUnbounded1W1R, naive::Naive, three_bounded::ThreeBounded,
            two::TwoProcessor, KRegCodec,
        };
        use ::cil_sim::PackCodec;
        use $crate::spec::ProtocolSpec as S;
        match $spec {
            S::Two => $f(&TwoProcessor::new(), &PackCodec, $($arg),*),
            S::Fig2 => $f(&NUnbounded::three(), &PackCodec, $($arg),*),
            S::Fig2Literal => $f(&NUnbounded::literal_fig2(3), &PackCodec, $($arg),*),
            S::Fig2OneReader => $f(&NUnbounded1W1R::three(), &PackCodec, $($arg),*),
            S::Fig3 => $f(&ThreeBounded::new(), &PackCodec, $($arg),*),
            S::Naive(n) => $f(&Naive::new(n), &PackCodec, $($arg),*),
            S::N(n) => $f(&NUnbounded::new(n), &PackCodec, $($arg),*),
            S::KValued { k, n: 2 } => {
                let p = KValued::new(TwoProcessor::new(), k);
                $f(&p, &KRegCodec::for_protocol(&p), $($arg),*)
            }
            S::KValued { k, n } => {
                let p = KValued::new(NUnbounded::new(n), k);
                $f(&p, &KRegCodec::for_protocol(&p), $($arg),*)
            }
            S::Det(rule) => $f(&DetTwo::new(rule), &PackCodec, $($arg),*),
            S::Racy => $f(&::cil_conc::RacyTwo::default(), &PackCodec, $($arg),*),
            S::Lint(kind) => $f(&::cil_audit::LintMutantTwo::new(kind), &PackCodec, $($arg),*),
        }
    }};
}
pub(crate) use with_spec;

/// Like [`with_spec!`] for an [`AuditSpec`]: a model mutant is the
/// two-processor protocol with its planted violation, over `PackCodec`.
macro_rules! with_audit_spec {
    ($spec:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $spec {
            $crate::spec::AuditSpec::Engine(p) => $crate::spec::with_spec!(p, $f($($arg),*)),
            $crate::spec::AuditSpec::Model(kind) => {
                $f(&::cil_audit::MutantTwo::new(kind), &::cil_sim::PackCodec, $($arg),*)
            }
        }
    };
}
pub(crate) use with_audit_spec;
