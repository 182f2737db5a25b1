//! End-to-end check of the `mccatch` binary on data whose distances
//! overflow `f64`: the run must fail loudly, not report "no outliers".

use std::process::Command;

/// 500 standard-normal 2-d points (xorshift + Box–Muller) plus two at
/// `(1e200, 1e200)`, as CSV.
fn overflowing_csv() -> String {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    let mut csv = String::new();
    for _ in 0..500 {
        let (r, t) = (
            (-2.0 * uniform().ln()).sqrt(),
            std::f64::consts::TAU * uniform(),
        );
        csv.push_str(&format!("{},{}\n", r * t.cos(), r * t.sin()));
    }
    csv.push_str("1e200,1e200\n1e200,1e200\n");
    csv
}

#[test]
fn overflowing_coordinates_exit_nonzero_with_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("mccatch-cli-overflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("huge.csv");
    std::fs::write(&input, overflowing_csv()).unwrap();
    for index in ["kd", "brute", "vp", "slim"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mccatch"))
            .arg("--input")
            .arg(&input)
            .args(["--index", index])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "--index {index} exited 0; stdout:\n{stdout}"
        );
        assert!(
            stderr.contains("diameter estimate is inf"),
            "--index {index}: {stderr}"
        );
        assert!(!stdout.contains("outliers: 0"), "--index {index}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
