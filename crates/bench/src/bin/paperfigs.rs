//! `paperfigs`: the paper's evaluation, one figure or table at a time
//! (see `lepton_bench::figures` and DESIGN §6).

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().expect("own executable");
    let code = lepton_bench::figures::main(
        &args,
        &mut std::io::stdout(),
        &mut std::io::stderr(),
        &mut |fig| {
            let status = Command::new(&exe).arg(fig.name).status();
            status.is_ok_and(|s| s.success())
        },
    );
    ExitCode::from(code)
}
