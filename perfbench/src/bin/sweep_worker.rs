//! The supervised grid's worker subprocess, built from source with the
//! benchmark: serves `digg_sim::supervisor` cell requests over
//! stdin/stdout until the supervisor closes the pipe.

fn main() {
    std::process::exit(digg_sim::supervisor::worker_main_stdio());
}
