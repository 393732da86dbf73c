//! The report at smoke size: the ledger has every registry entry at two
//! sizes, and every row of it and of `table1` parses as flat JSON,
//! orders its quartiles and agrees with its sequential baseline.

use pp_bench::report::{run, Sizing};

/// A flat JSON object's `(key, value)` pairs, each value a scalar.
fn parse(line: &str) -> Vec<(String, String)> {
    let body = line.strip_prefix("{\"").and_then(|l| l.strip_suffix('}'));
    let pairs = body.expect("an object").split(",\"").map(|pair| {
        let (key, value) = pair.split_once("\":").expect("a key");
        let string = value.len() > 1 && value.starts_with('"') && value.ends_with('"');
        let scalar = ["true", "false", "null"].contains(&value) || value.parse::<f64>().is_ok();
        assert!(string || scalar, "{key}: {value}");
        (key.to_string(), value.to_string())
    });
    pairs.collect()
}

#[test]
fn ledger_and_table1_rows_parse_order_quartiles_and_agree() {
    let mut text = Vec::new();
    let sizing = Sizing {
        scale: 1,
        smoke: true,
    };
    for section in ["ledger", "table1"] {
        assert_eq!(run(section, sizing, &mut text), Ok(0), "{section}");
    }
    let mut ledger = Vec::new();
    for row in String::from_utf8(text).unwrap().lines().map(parse) {
        let get = |key: &str| row.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        assert_eq!(get("agree"), Some("true"));
        for (key, value) in &row {
            if let Some(name) = key.strip_suffix("_seq_digest") {
                assert_eq!(get(&format!("{name}_par_digest")), Some(value.as_str()));
            }
            if let (Some(lo), Some(hi)) = (get(&format!("{key}_p25")), get(&format!("{key}_p75"))) {
                let [lo, mid, hi] = [lo, value, hi].map(|v| v.parse::<f64>().unwrap());
                assert!(lo <= mid && mid <= hi, "{key} in {row:?}");
            }
        }
        let owned = |key| get(key).unwrap().to_string();
        if get("section") == Some("\"ledger\"") {
            ledger.push((owned("label"), owned("n")));
        }
    }
    for name in pp_algos::registry::names() {
        let label = format!("{name:?}");
        let sizes: Vec<_> = ledger.iter().filter(|(l, _)| *l == label).collect();
        assert!(sizes.len() == 2 && sizes[0].1 != sizes[1].1, "{name}");
    }
}
