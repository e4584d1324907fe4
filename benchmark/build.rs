//! Records the compiler flags of the build, for the report's host block.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=BENCH_RUSTFLAGS={}",
        flags.replace('\x1f', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
