//! Shared configuration for the bench harness binaries.
//!
//! Every harness parses its knobs through [`BenchConfig::from_env`] with typed
//! accessors: a knob that is set but does not parse is a [`KnobError`] naming
//! the variable and its value, never a silent fallback to the default. The
//! machine-readable output arguments of the perf trajectory are shared too:
//! `--json <path>` / `HUMO_BENCH_JSON` selects where the harness writes its
//! `BENCH_*.json` document, `--baseline <path>` / `HUMO_BENCH_BASELINE`
//! selects a committed baseline to diff against (see [`crate::trajectory`]).

use std::path::PathBuf;
use std::str::FromStr;

/// Typed access to a harness's environment knobs (`{PREFIX}_{NAME}` variables,
/// e.g. `HUMO_PIPE_ENTITIES`) plus the shared `--json` / `--baseline` output
/// arguments.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    prefix: String,
    args: Vec<String>,
}

/// A knob that is set to a value its accessor cannot parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The environment variable, e.g. `HUMO_CAL_TAUS`.
    pub var: String,
    /// Its value.
    pub value: String,
    /// What the accessor accepts.
    pub expected: String,
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for KnobError {}

impl BenchConfig {
    /// Captures the process environment and arguments for a harness whose
    /// variables share `prefix` (e.g. `"HUMO_PIPE"`, `"HUMO_CAL"`).
    pub fn from_env(prefix: &str) -> Self {
        Self { prefix: prefix.to_string(), args: std::env::args().skip(1).collect() }
    }

    /// As [`BenchConfig::from_env`], but with explicit arguments (for tests).
    pub fn with_args(prefix: &str, args: impl IntoIterator<Item = String>) -> Self {
        Self { prefix: prefix.to_string(), args: args.into_iter().collect() }
    }

    /// The arguments other than `--json` / `--baseline` and their values.
    pub fn positional(&self) -> Vec<&str> {
        let mut rest = Vec::new();
        let mut args = self.args.iter();
        while let Some(arg) = args.next() {
            if arg == "--json" || arg == "--baseline" {
                args.next();
            } else if !arg.starts_with("--json=") && !arg.starts_with("--baseline=") {
                rest.push(arg.as_str());
            }
        }
        rest
    }

    fn var_name(&self, name: &str) -> String {
        format!("{}_{name}", self.prefix)
    }

    fn var(&self, name: &str) -> Option<String> {
        std::env::var(self.var_name(name)).ok()
    }

    fn error(&self, name: &str, value: &str, expected: &str) -> KnobError {
        KnobError { var: self.var_name(name), value: value.to_string(), expected: expected.into() }
    }

    fn parsed<T: FromStr>(&self, name: &str, default: T, expected: &str) -> Result<T, KnobError> {
        match self.var(name) {
            Some(value) => value.trim().parse().map_err(|_| self.error(name, &value, expected)),
            None => Ok(default),
        }
    }

    /// A `usize` knob: `{PREFIX}_{NAME}`, or `default` when unset.
    pub fn usize(&self, name: &str, default: usize) -> Result<usize, KnobError> {
        self.parsed(name, default, "an unsigned integer")
    }

    /// An `f64` knob.
    pub fn f64(&self, name: &str, default: f64) -> Result<f64, KnobError> {
        self.parsed(name, default, "a number")
    }

    /// A boolean knob: set-and-not-falsy (`""`, `"0"`, `"false"`, `"off"` are
    /// false) — the union of the conventions the harnesses used individually.
    pub fn flag(&self, name: &str) -> bool {
        self.var(name)
            .map(|v| !matches!(v.trim().to_ascii_lowercase().as_str(), "" | "0" | "false" | "off"))
            .unwrap_or(false)
    }

    /// A comma-separated `f64` list knob; `default` when unset. Every entry
    /// must parse.
    pub fn f64_list(&self, name: &str, default: &[f64]) -> Result<Vec<f64>, KnobError> {
        match self.var(name) {
            Some(raw) => raw
                .split(',')
                .map(|t| {
                    t.trim().parse().map_err(|_| self.error(name, &raw, "comma-separated numbers"))
                })
                .collect(),
            None => Ok(default.to_vec()),
        }
    }

    /// A knob naming one of `choices` (ASCII case-insensitive); the first
    /// choice when unset.
    pub fn one_of(&self, name: &str, choices: &[&'static str]) -> Result<&'static str, KnobError> {
        match self.var(name) {
            Some(value) => choices
                .iter()
                .find(|choice| value.trim().eq_ignore_ascii_case(choice))
                .copied()
                .ok_or_else(|| self.error(name, &value, &format!("one of {}", choices.join(", ")))),
            None => Ok(choices[0]),
        }
    }

    /// A free-form knob, such as a path; `None` when unset or empty.
    pub fn string(&self, name: &str) -> Option<String> {
        self.var(name).filter(|v| !v.is_empty())
    }

    fn arg_value(&self, flag: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .cloned()
            .or_else(|| {
                let prefix = format!("{flag}=");
                self.args.iter().find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
            })
    }

    /// Where to write the harness's machine-readable `BENCH_*.json` document:
    /// `--json <path>` (or `--json=<path>`), else `HUMO_BENCH_JSON`, else no
    /// JSON output.
    pub fn json_output(&self) -> Option<PathBuf> {
        self.arg_value("--json")
            .or_else(|| std::env::var("HUMO_BENCH_JSON").ok())
            .filter(|p| !p.is_empty())
            .map(PathBuf::from)
    }

    /// The committed baseline to diff the fresh document against:
    /// `--baseline <path>` (or `--baseline=<path>`), else
    /// `HUMO_BENCH_BASELINE`, else no gating.
    pub fn baseline(&self) -> Option<PathBuf> {
        self.arg_value("--baseline")
            .or_else(|| std::env::var("HUMO_BENCH_BASELINE").ok())
            .filter(|p| !p.is_empty())
            .map(PathBuf::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors_fall_back_to_defaults() {
        // Use a prefix no test environment sets.
        let cfg = BenchConfig::with_args("HUMO_NOPE", []);
        assert_eq!(cfg.usize("ENTITIES", 1500), Ok(1500));
        assert_eq!(cfg.f64("STRENGTH", 2.5), Ok(2.5));
        assert!(!cfg.flag("ASSERT"));
        assert_eq!(cfg.f64_list("TAUS", &[6.0, 8.0]), Ok(vec![6.0, 8.0]));
        assert_eq!(cfg.one_of("AGG", &["majority", "em"]), Ok("majority"));
        assert_eq!(cfg.string("WAL_DIR"), None);
    }

    // Each test below sets variables under a prefix of its own, so tests
    // running in parallel never see each other's values.

    #[test]
    fn set_knobs_parse() {
        std::env::set_var("HUMO_TEST_SET_N", " 12 ");
        std::env::set_var("HUMO_TEST_SET_X", "0.25");
        std::env::set_var("HUMO_TEST_SET_LIST", "8, 14");
        std::env::set_var("HUMO_TEST_SET_AGG", "EM");
        let cfg = BenchConfig::with_args("HUMO_TEST_SET", []);
        assert_eq!(cfg.usize("N", 1), Ok(12));
        assert_eq!(cfg.f64("X", 1.0), Ok(0.25));
        assert_eq!(cfg.f64_list("LIST", &[]), Ok(vec![8.0, 14.0]));
        assert_eq!(cfg.one_of("AGG", &["majority", "em"]), Ok("em"));
    }

    #[test]
    fn an_unparsable_usize_names_the_variable_and_the_value() {
        std::env::set_var("HUMO_TEST_BAD_USIZE_SEEDS", "-3");
        let err = BenchConfig::with_args("HUMO_TEST_BAD_USIZE", []).usize("SEEDS", 20).unwrap_err();
        assert_eq!((err.var.as_str(), err.value.as_str()), ("HUMO_TEST_BAD_USIZE_SEEDS", "-3"));
        assert!(err.to_string().contains("HUMO_TEST_BAD_USIZE_SEEDS=\"-3\""), "{err}");
    }

    #[test]
    fn an_unparsable_f64_is_an_error() {
        std::env::set_var("HUMO_TEST_BAD_F64_SCALE", "0,2");
        let err = BenchConfig::with_args("HUMO_TEST_BAD_F64", []).f64("SCALE", 0.2).unwrap_err();
        assert_eq!((err.var.as_str(), err.value.as_str()), ("HUMO_TEST_BAD_F64_SCALE", "0,2"));
    }

    #[test]
    fn one_bad_list_entry_fails_the_whole_list() {
        std::env::set_var("HUMO_TEST_BAD_LIST_TAUS", "8,l4");
        let err =
            BenchConfig::with_args("HUMO_TEST_BAD_LIST", []).f64_list("TAUS", &[6.0]).unwrap_err();
        assert_eq!((err.var.as_str(), err.value.as_str()), ("HUMO_TEST_BAD_LIST_TAUS", "8,l4"));
        std::env::set_var("HUMO_TEST_BAD_LIST_EMPTY", "");
        let cfg = BenchConfig::with_args("HUMO_TEST_BAD_LIST", []);
        assert!(cfg.f64_list("EMPTY", &[6.0]).is_err(), "an empty list measures nothing");
    }

    #[test]
    fn an_unknown_choice_is_an_error() {
        std::env::set_var("HUMO_TEST_BAD_CHOICE_AGG", "median");
        let err = BenchConfig::with_args("HUMO_TEST_BAD_CHOICE", [])
            .one_of("AGG", &["majority", "em"])
            .unwrap_err();
        assert_eq!((err.var.as_str(), err.value.as_str()), ("HUMO_TEST_BAD_CHOICE_AGG", "median"));
        assert_eq!(err.expected, "one of majority, em");
    }

    #[test]
    fn json_and_baseline_arguments_parse_in_both_forms() {
        let args = ["quality", "--json", "out.json", "--baseline=base.json", "runtime"];
        let cfg = BenchConfig::with_args("HUMO_NOPE", args.map(String::from));
        assert_eq!(cfg.json_output(), Some(PathBuf::from("out.json")));
        assert_eq!(cfg.baseline(), Some(PathBuf::from("base.json")));
        assert_eq!(cfg.positional(), ["quality", "runtime"]);
        let none = BenchConfig::with_args("HUMO_NOPE", ["--json".to_string(), String::new()]);
        assert_eq!(none.json_output(), None);
    }
}
