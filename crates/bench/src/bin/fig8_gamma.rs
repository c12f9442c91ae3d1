//! **Fig. 8(a)/(b)** — the probability γ that a *normal* feature value
//! survives l-of-n voting (eq. (3)) for b = 1 and b = 5 anomalous bins out
//! of k = 1024, n ∈ [1, 25].
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin fig8_gamma
//! ```

use anomex_bench::models::{expected_normal_survivors, gamma_normal_survives};

fn panel(b: u64, k: u64) {
    println!("-- panel: b = {b}, k = {k} --");
    println!(
        "{:>3} {:>12} {:>12} {:>12}",
        "n", "l=1", "l=ceil(n/2)", "l=n"
    );
    for n in 1..=25u64 {
        let l_mid = n.div_ceil(2);
        println!(
            "{n:>3} {:>12.3e} {:>12.3e} {:>12.3e}",
            gamma_normal_survives(b, k, n, 1),
            gamma_normal_survives(b, k, n, l_mid),
            gamma_normal_survives(b, k, n, n),
        );
    }
    println!();
}

fn main() {
    println!("== Fig. 8: γ (normal value survives voting) ==\n");
    panel(1, 1024);
    panel(5, 1024);

    println!("paper checkpoints:");
    println!(
        "  b=1, l=1, n=5 -> γ = {:.2e} (≈ 1 - (1 - 1/1024)^5 ≈ 4.9e-3)",
        gamma_normal_survives(1, 1024, 5, 1)
    );
    println!(
        "  b=1, l=n=5    -> γ = {:.2e} (≈ (1/1024)^5: unanimous voting almost \
         never keeps a colliding value)",
        gamma_normal_survives(1, 1024, 5, 5)
    );
    println!(
        "  b=5 vs b=1 at l=2, n=3: {:.2e} vs {:.2e} — γ grows dramatically with \
         the number of anomalous bins (distributed anomalies)",
        gamma_normal_survives(5, 1024, 3, 2),
        gamma_normal_survives(1, 1024, 3, 2)
    );
    println!(
        "\nexpected normal port values kept (65 536 ports, b=3, k=1024, l=n=3): {:.3e}",
        expected_normal_survivors(65_536, 3, 1024, 3, 3)
    );
}
