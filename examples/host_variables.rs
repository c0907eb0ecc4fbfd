//! Host-variable sensitivity, end to end: the same prepared query swept
//! over its parameter, with the optimizer's decision timeline printed so
//! you can watch the strategy change — the paper's core motivation.
//!
//! Run: `cargo run --release -p rdb-bench --example host_variables`

use rdb_core::{render_timeline, TraceBuffer};
use rdb_query::QueryOptions;
use rdb_workload::{families_db, FamiliesConfig};

fn main() {
    let db = families_db(&FamiliesConfig {
        rows: 20_000,
        ..FamiliesConfig::default()
    });

    let sql = "select ID, AGE from FAMILIES where AGE >= :A1 and CITY = :C";
    println!("query: {sql}\n");

    for (a1, c) in [(0i64, 0i64), (0, 450), (95, 0), (99, 450), (150, 0)] {
        db.clear_cache();
        let trace = TraceBuffer::shared(4096);
        let opts = QueryOptions::new()
            .with_param("A1", a1)
            .with_param("C", c)
            .with_trace(trace.clone());
        let result = db.query(sql, &opts).expect("query");
        println!(
            ":A1={a1:>3} :C={c:>3}  {:>5} rows  cost {:>8.1}  [{}]",
            result.rows.len(),
            result.cost,
            result.strategy
        );
        for line in render_timeline(&trace.take()).lines() {
            println!("    {line}");
        }
    }

    println!(
        "\nCITY is Zipf-skewed: CITY=0 is hot (thousands of rows), CITY=450\n\
         is cold (a handful). The joint scan orders and prunes its index\n\
         scans per binding; the empty AGE range cancels everything at once."
    );
}
