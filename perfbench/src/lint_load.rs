//! `lint_load`: a specification author's edit–lint loop, the path of the
//! `sos lint` command and of strict-lint registration.
//!
//! Inputs: five clean sources (two specifications extending the built-in
//! signature, three rule files), with every operator, constructor and
//! rule name tagged by the seed so each seed lints its own sources.
//!
//! Each cycle is seven operations:
//! * `Database::lint_source` over each source (five operations, in a
//!   seeded rotation);
//! * one strict load: a fresh `strict_lint(true)` database,
//!   `load_spec` of both specifications and `load_rules` of the three
//!   rule files;
//! * one full `Database::lint()` of that database (the `.lint` pass),
//!   which witness synthesis for the rule lints dominates.
//!
//! Set-up renders the seeded sources and builds one database with the
//! built-in signature and rules, the start-up cost every `sos` process pays.
//!
//! Every source is clean, so every operation must report 0 diagnostics.

use crate::gen::Rng;
use crate::trace::Tracer;
use crate::{Kind, Report, Workload};
use sos_system::Database;

const SOURCES: [(&str, &str); 5] = [
    ("nested.spec", include_str!("lint_sources/nested.spec")),
    (
        "partitioned.spec",
        include_str!("lint_sources/partitioned.spec"),
    ),
    ("select.rules", include_str!("lint_sources/select.rules")),
    ("range.rules", include_str!("lint_sources/range.rules")),
    ("spatial.rules", include_str!("lint_sources/spatial.rules")),
];

/// Operations per cycle: one `lint_source` per source, the strict load
/// and the full lint.
const CYCLE: usize = SOURCES.len() + 2;

pub struct LintLoad {
    seed: u64,
    /// `(file name, source)` with the seed's tag filled in, in the
    /// seed's rotation.
    sources: Vec<(String, String)>,
    next: usize,
    /// The strict database of the current cycle, linted by its last
    /// operation.
    loaded: Option<Database>,
    diagnostics: u64,
}

impl LintLoad {
    pub fn new(seed: u64) -> LintLoad {
        LintLoad {
            seed,
            sources: Vec::new(),
            next: 0,
            loaded: None,
            diagnostics: 0,
        }
    }

    fn expect_clean(&mut self, what: &str, n: usize) -> Result<(), String> {
        self.diagnostics += n as u64;
        if n == 0 {
            Ok(())
        } else {
            Err(format!("{what}: {n} diagnostics on a clean source"))
        }
    }

    fn strict_load(&self, tr: &mut Tracer) -> Result<Database, String> {
        let mut db = Database::builder().strict_lint(true).build();
        for (name, src) in self.sources.iter().filter(|(n, _)| n.ends_with(".spec")) {
            tr.time("Database::load_spec", || db.load_spec(src))
                .map_err(|e| format!("load_spec {name}: {e}"))?;
        }
        for (name, src) in self.sources.iter().filter(|(n, _)| n.ends_with(".rules")) {
            let step = name.trim_end_matches(".rules");
            tr.time("Database::load_rules", || db.load_rules(step, src))
                .map_err(|e| format!("load_rules {name}: {e}"))?;
        }
        Ok(db)
    }
}

impl Workload for LintLoad {
    fn setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        let mut rng = Rng::new(self.seed).fork(31);
        let tag = format!("s{}", rng.below(1_000_000));
        self.sources = SOURCES
            .iter()
            .map(|(name, src)| (name.to_string(), src.replace("TAG", &tag)))
            .collect();
        self.sources
            .rotate_left(rng.below(SOURCES.len() as u64) as usize);
        self.next = 0;
        self.loaded = None;
        let db = Database::builder().build();
        std::hint::black_box(db.signature());
        Ok(())
    }

    fn rows_loaded(&self) -> u64 {
        0
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<Kind, String> {
        let i = self.next % CYCLE;
        self.next += 1;
        if i < self.sources.len() {
            let (name, src) = &self.sources[i];
            let span = if name.ends_with(".spec") {
                "Database::lint_source(spec)"
            } else {
                "Database::lint_source(rules)"
            };
            let diags = tr
                .time(span, || Database::lint_source(name, src))
                .map_err(|e| format!("lint_source {name}: {e}"))?;
            let name = name.clone();
            self.expect_clean(&format!("lint_source {name}"), diags.len())?;
        } else if i == self.sources.len() {
            self.loaded = None;
            self.loaded = Some(self.strict_load(tr)?);
        } else {
            let db = self
                .loaded
                .take()
                .ok_or("full lint without a loaded database")?;
            let diags = tr.time("Database::lint", || db.lint());
            self.expect_clean("lint", diags.len())?;
        }
        Ok(Kind::Read)
    }

    fn db(&mut self) -> Option<&mut Database> {
        None
    }

    fn round(&self) -> u64 {
        CYCLE as u64
    }

    fn finish(&mut self, _tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
        report.set("lint.diagnostics", self.diagnostics as f64, "count");
        Ok(())
    }
}
