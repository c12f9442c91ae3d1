//! **Fig. 7** — the analytic upper bound β on the probability that an
//! anomalous feature value is eliminated by l-of-n voting (eq. (2)),
//! for p = 0.99 and n ∈ [1, 25], highlighting the l = 1 and l = n curves
//! the paper marks.
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin fig7_beta_miss
//! ```

use anomex_bench::models::beta_miss_upper;

fn main() {
    let p = 0.99;
    println!("== Fig. 7: β (miss probability upper bound) vs n and l, p = {p} ==\n");
    println!(
        "{:>3} {:>12} {:>12} {:>12} {:>12}",
        "n", "l=1", "l=ceil(n/2)", "l=n", "log10(l=n)"
    );
    for n in 1..=25u64 {
        let l_mid = n.div_ceil(2);
        let b1 = beta_miss_upper(p, n, 1);
        let bm = beta_miss_upper(p, n, l_mid);
        let bn = beta_miss_upper(p, n, n);
        println!(
            "{n:>3} {b1:>12.3e} {bm:>12.3e} {bn:>12.3e} {:>12.2}",
            bn.log10()
        );
    }

    println!("\npaper checkpoints:");
    println!(
        "  l=n, n=5  -> β = {:.3} (paper ≈ 0.049 = 1 - 0.99^5)",
        beta_miss_upper(p, 5, 5)
    );
    println!(
        "  l=n, n=25 -> β = {:.3} (paper: increases to ≈ 0.22)",
        beta_miss_upper(p, 25, 25)
    );
    println!(
        "  minimum at l=1 for every n; β grows with l at fixed n — the \
         trade-off the voting parameters settle (paper §III-C)."
    );
}
