//! The figure table and the `paperfigs` command line.
//!
//! `paperfigs <name>` prints the figure's header from [`FIGURES`], runs
//! its function in this process, and emits the JSON record the function
//! returns (if any) with the figure's kind added. `paperfigs all` runs
//! every figure in its own child process, in table order, and stops at
//! the first failure: fig3 measures its children's `VmHWM`, and the
//! figures share `Engine::global()` and `Registry::global()`.

use crate::json::{emit, Fields, Json};
use crate::{measured, model, stand_in};
use std::io::Write;

/// Where a figure's numbers come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Times or sizes this repo's own code.
    Measured,
    /// The `lepton_cluster` simulator or an analytic model.
    Model,
    /// Compares Lepton with the `lepton_baselines` stand-ins for the
    /// paper's external codecs (DESIGN §5).
    StandIn,
}

impl Kind {
    /// The label headers and records carry.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Model => "model",
            Kind::StandIn => "stand-in",
        }
    }
}

/// One row of [`FIGURES`].
pub struct Figure {
    /// The command-line name, also the JSON record's `id`.
    pub name: &'static str,
    /// The paper's figure, table or section.
    pub paper: &'static str,
    /// Where its numbers come from.
    pub kind: Kind,
    /// The header's caption.
    pub caption: &'static str,
    /// Prints the figure; returns its JSON record's fields, if it emits one.
    pub run: fn() -> Option<Fields>,
}

impl Figure {
    const fn new(
        name: &'static str,
        paper: &'static str,
        kind: Kind,
        caption: &'static str,
        run: fn() -> Option<Fields>,
    ) -> Self {
        Figure {
            name,
            paper,
            kind,
            caption,
            run,
        }
    }

    /// Run the figure in this process: header, body, record.
    pub fn run_here(&self) {
        println!("==============================================================");
        println!("{}: {} [{}]", self.paper, self.caption, self.kind.as_str());
        println!("==============================================================");
        if let Some(fields) = (self.run)() {
            let kind = ("kind", Json::from(self.kind.as_str()));
            emit(self.name, std::iter::once(kind).chain(fields));
        }
    }
}

/// Every figure and table of the evaluation, in paper order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 21] = {
    use Kind::*;
    [
        Figure::new("fig1_tradeoff", "Figure 1", StandIn, "savings vs decompression speed, JPEG-aware codecs", stand_in::fig1_tradeoff),
        Figure::new("fig2_codecs", "Figure 2", StandIn, "savings and speed of all codecs, rejects included", stand_in::fig2_codecs),
        Figure::new("fig3_memory", "Figure 3", StandIn, "max resident memory per codec (MiB), p50/p99 across files", stand_in::fig3_memory),
        Figure::new("fig4_components", "Figure 4", Measured, "compression ratio by component (paper: 77.3% total)", measured::fig4_components),
        Figure::new("fig5_weekly", "Figure 5", Model, "weekly coding-event rhythm (decodes vs encodes)", model::fig5_weekly),
        Figure::new("fig6_savings_by_size", "Figure 6", Measured, "savings are uniform across file sizes", measured::fig6_savings_by_size),
        Figure::new("fig7_decode_speed", "Figure 7", Measured, "decode speed vs file size, by thread-segment count", measured::fig7_decode_speed),
        Figure::new("fig8_encode_speed", "Figure 8", Measured, "encode speed vs file size, by thread-segment count", measured::fig8_encode_speed),
        Figure::new("fig9_outsourcing", "Figure 9", Model, "p99 concurrent conversions per machine, by strategy", model::fig9_outsourcing),
        Figure::new("fig10_latency", "Figure 10", Model, "latency percentiles by strategy x threshold", model::fig10_latency),
        Figure::new("fig10_replay", "Replay", Measured, "zipf/diurnal trace against the live fleet: serial vs hedged read tails under a slow node", measured::replay::fig10_replay),
        Figure::new("fig11_backfill", "Figure 11", Model, "datacenter power and conversions/s, with outage", model::fig11_backfill),
        Figure::new("fig12_thp", "Figure 12", Model, "decode latency percentiles, THP on -> off", model::fig12_thp),
        Figure::new("fig13_ratio", "Figure 13", Model, "decode:encode ratio across the rollout", model::fig13_ratio),
        Figure::new("fig13_blockstore", "Blockstore", Measured, "compress-on-write blockstore: throughput, cache, shards, backfill", measured::blockstore::fig13_blockstore),
        Figure::new("fig14_rampup", "Figure 14", Model, "latency percentiles over ramp-up (no outsourcing)", model::fig14_rampup),
        Figure::new("fig15_fleet", "Fleet", Measured, "consistent-hash gateway over live nodes: throughput, failover, rebalance", measured::fleet::fig15_fleet),
        Figure::new("fig16_scaling", "Figure 16", Measured, "multicore scaling: decode throughput vs engine workers", measured::fig16_scaling),
        Figure::new("tab_client_side", "Table §7", Model, "codec placement: wire bytes and conversion CPU, server-side vs client-side", model::tab_client_side),
        Figure::new("tab_error_codes", "§6.2 table", Measured, "exit codes over the mixed corpus", measured::tab_error_codes),
        Figure::new("tab_incident", "Table §6.5", Model, "safety-net overload: upload availability through the incident", model::tab_incident),
    ]
};

/// The usage text, printed on a bad command line.
pub const USAGE: &str = "\
usage: paperfigs <name>   run one figure
       paperfigs list     print every figure's name, in table order
       paperfigs all      run every figure, each in a child process;
                          stop at the first failure
";

/// The `paperfigs` command line (without the program name); returns
/// the exit code. `list` and the usage text go to `out` and `err`;
/// `all` hands each figure to `child`, which runs it and reports
/// success.
pub fn main(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
    child: &mut dyn FnMut(&Figure) -> bool,
) -> u8 {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["list"] => {
            for fig in &FIGURES {
                let _ = writeln!(out, "{}", fig.name);
            }
            0
        }
        ["all"] => {
            for fig in &FIGURES {
                if !child(fig) {
                    let _ = writeln!(err, "paperfigs: {} failed", fig.name);
                    return 1;
                }
            }
            0
        }
        [stand_in::CHILD, ref rest @ ..] => stand_in::fig3_child(rest),
        [name] => match FIGURES.iter().find(|f| f.name == name) {
            Some(fig) => {
                fig.run_here();
                0
            }
            None => usage(err),
        },
        _ => usage(err),
    }
}

fn usage(err: &mut dyn Write) -> u8 {
    let _ = err.write_all(USAGE.as_bytes());
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str], child: &mut dyn FnMut(&Figure) -> bool) -> (u8, String, String) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = main(&args, &mut out, &mut err, child);
        let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
        (code, text(out), text(err))
    }

    fn no_child(fig: &Figure) -> bool {
        panic!("no child expected, got {}", fig.name)
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn list_prints_names_in_table_order() {
        let (code, out, err) = call(&["list"], &mut no_child);
        assert_eq!((code, err.as_str()), (0, ""));
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(out.lines().collect::<Vec<_>>(), names);
    }

    #[test]
    fn unknown_name_exits_1_with_usage() {
        for args in [&["fig99_nothing"][..], &[], &["list", "extra"]] {
            let (code, out, err) = call(args, &mut no_child);
            assert_eq!((code, out.as_str()), (1, ""), "{args:?}");
            assert!(err.ends_with(USAGE), "{args:?}: {err}");
        }
    }

    #[test]
    fn all_stops_at_the_first_failing_child() {
        let mut ran = Vec::new();
        let (code, out, err) = call(&["all"], &mut |fig| {
            ran.push(fig.name);
            fig.name != "fig3_memory"
        });
        assert_eq!(code, 1);
        assert_eq!(ran, ["fig1_tradeoff", "fig2_codecs", "fig3_memory"]);
        assert_eq!(
            (out.as_str(), err.as_str()),
            ("", "paperfigs: fig3_memory failed\n")
        );

        let mut count = 0;
        let (code, _, err) = call(&["all"], &mut |_| {
            count += 1;
            true
        });
        assert_eq!((code, count, err.as_str()), (0, FIGURES.len(), ""));
    }
}
