//! Runs the entire reproduction: every table and figure, in paper order.
//! This is the single entry point for the paper's artifacts; `extensions`
//! prints the analyses that go beyond the paper.
use botscope_core::report;

fn main() {
    let full = botscope_bench::full_report();
    let exp = botscope_bench::experiment();
    println!("=== botscope reproduction: all tables and figures ===\n");
    println!("{}", full.table2());
    println!("{}", full.table3());
    println!("{}", full.figure2());
    println!("{}", full.figure3());
    println!("{}", full.figure4());
    println!("{}", report::policies());
    println!("{}", report::table4(&exp));
    println!("{}", report::table5(&exp));
    println!("{}", report::table6(&exp));
    println!("{}", report::figure9(&exp, false));
    println!("{}", report::table7(&exp));
    println!("{}", full.figure10());
    println!("{}", full.table8());
    println!("{}", report::table9(&exp));
    println!("{}", report::figure9(&exp, true));
    println!("{}", report::table10(&exp));
}
