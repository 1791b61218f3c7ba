//! Tiny dependency-free argument parsing: `--key value` / `--flag` options
//! and positional arguments after a subcommand.

use std::collections::HashMap;

/// The most worker threads `--jobs` or `--shards` may ask for.
pub const MAX_WORKERS: usize = 1024;

/// Parsed command line: a subcommand plus `--key value` options, `--flag`
/// switches, and bare positional arguments (e.g. `cil replay out.jsonl`).
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses the given tokens (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message for a dangling `--key` with no value when the key
    /// is not a known boolean flag, or for tokens before the subcommand.
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        boolean_flags: &[&str],
    ) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = tokens.into_iter().peekable();
        match it.next() {
            Some(cmd) if !cmd.starts_with("--") => args.command = cmd,
            Some(other) => return Err(format!("expected a subcommand, got '{other}'")),
            None => return Ok(args),
        }
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                args.positionals.push(tok);
                continue;
            };
            let key = key.to_string();
            if boolean_flags.contains(&key.as_str()) {
                args.flags.push(key);
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option --{key} needs a value"))?;
                args.options.insert(key, value);
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the option if the value fails to parse.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// Worker-thread count (`--jobs`, `--shards`). `0`, the default, means
    /// every available core; counts above [`MAX_WORKERS`] are refused, since
    /// each worker is an OS thread.
    ///
    /// # Errors
    ///
    /// Returns a message naming the option if the value fails to parse or
    /// exceeds [`MAX_WORKERS`].
    pub fn get_workers(&self, key: &str) -> Result<usize, String> {
        let workers = self.get_u64(key, 0)?;
        if workers > MAX_WORKERS as u64 {
            return Err(format!(
                "--{key} takes at most {MAX_WORKERS} worker threads (0 = all cores), got {workers}"
            ));
        }
        Ok(workers as usize)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The `i`-th bare positional argument after the subcommand.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

/// Parses an input list like `a,b,a` or `0,1,0` into values
/// (`a`/`b` map to 0/1).
///
/// # Errors
///
/// Returns a message naming the offending token.
pub fn parse_inputs(text: &str) -> Result<Vec<cil_sim::Val>, String> {
    text.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| match t.trim() {
            "a" | "A" => Ok(cil_sim::Val::A),
            "b" | "B" => Ok(cil_sim::Val::B),
            other => other
                .parse::<u64>()
                .map(cil_sim::Val)
                .map_err(|_| format!("bad input value '{other}' (use a, b or integers)")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_sim::Val;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(toks("run --protocol fig2 --seed 7 --trace"), &["trace"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("protocol"), Some("fig2"));
        assert_eq!(a.get_u64("seed", 0).unwrap(), 7);
        assert!(a.flag("trace"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(toks("run --seed"), &[]).is_err());
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(toks("check"), &[]).unwrap();
        assert_eq!(a.get_or("protocol", "two"), "two");
        assert_eq!(a.get_u64("depth", 9).unwrap(), 9);
    }

    #[test]
    fn bad_integer_is_reported_with_its_option() {
        let a = Args::parse(toks("run --seed xyz"), &[]).unwrap();
        let err = a.get_u64("seed", 0).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn worker_counts_are_capped_and_named() {
        let workers = |value: &str| {
            Args::parse(toks(&format!("sweep --jobs {value}")), &[])
                .unwrap()
                .get_workers("jobs")
        };
        assert_eq!(workers("0").unwrap(), 0);
        assert_eq!(workers("1024").unwrap(), MAX_WORKERS);
        for bad in ["1025", "x"] {
            let err = workers(bad).unwrap_err();
            assert!(err.contains("--jobs"), "{err}");
        }
    }

    #[test]
    fn inputs_accept_letters_and_numbers() {
        assert_eq!(parse_inputs("a,b,a").unwrap(), vec![Val::A, Val::B, Val::A]);
        assert_eq!(parse_inputs("0,1,5").unwrap(), vec![Val(0), Val(1), Val(5)]);
        assert!(parse_inputs("a,x").is_err());
    }

    #[test]
    fn empty_args_have_no_command() {
        let a = Args::parse(Vec::<String>::new(), &[]).unwrap();
        assert!(a.command.is_empty());
    }

    #[test]
    fn bare_tokens_become_positionals() {
        let a = Args::parse(toks("replay out.jsonl --jobs 2 extra"), &[]).unwrap();
        assert_eq!(a.command, "replay");
        assert_eq!(a.pos(0), Some("out.jsonl"));
        assert_eq!(a.pos(1), Some("extra"));
        assert_eq!(a.pos(2), None);
        assert_eq!(a.get_u64("jobs", 0).unwrap(), 2);
    }
}
