//! Extension analyses beyond the paper's published tables: adaptation
//! speed (the §4.1 stated goal the paper leaves unquantified),
//! promise-vs-practice, and honeypot corroboration of spoofing (§6
//! future work).

use botscope_core::pipeline::standardize_table;
use botscope_core::spoofdetect::detect_rows;
use botscope_core::{adaptation, honeypot, promise, Experiment};
use botscope_simnet::scenario::phase_study_table;

fn main() {
    let cfg = botscope_bench::phase_config();
    let study = phase_study_table(&cfg);
    let table = &study.sim.table;

    // Adaptation: how long until bots notice each new file?
    let logs = standardize_table(table);
    let lags = adaptation::awareness_lags(&logs, &study.schedule);
    println!("{}", adaptation::render(&adaptation::by_category(&lags)));

    // Promise vs practice.
    let exp = Experiment::analyze_table(table, &study.schedule);
    println!("{}", promise::render(&exp));

    // Honeypot trap analysis + spoof corroboration.
    let spoof = detect_rows(table, logs.bots.iter().map(|(n, v)| (n, &v.rows)));
    println!("{}", honeypot::render(&logs, &spoof));
}
