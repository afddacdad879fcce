//! Where this process runs, and which CPU its main thread sits on.
//!
//! The main thread (tester, event loop, runtime dispatcher) is pinned
//! to the highest allowed CPU. The runtime derives its worker's pin
//! target from the mask of the thread that starts the session, so the
//! `runtime` workload's worker lands on that same CPU and the two
//! hand the core back and forth by yielding. That is deliberate on the
//! sandbox this was sized on: its two vCPUs share one physical core (a
//! spinner on cpu 0 slows an ALU loop on cpu 1 by 2–4×), and with
//! dispatcher and worker split across them `burst_us_p50` swung 2.3×
//! from run to run (README, "The host").

use std::cell::Cell;

use netsim::backend::os::{allowed_cpus, pin_current_thread};

/// The host record printed with every result: the numbers mean nothing
/// without it.
#[derive(Debug, Clone)]
pub struct Host {
    /// `available_parallelism` before any pinning.
    pub nproc: usize,
    /// CPUs the process may use.
    pub allowed: Vec<usize>,
    /// Whether [`Host::pin_main`] stuck (`None`: never tried).
    pinned: Cell<Option<bool>>,
}

impl Host {
    /// Read the host facts. Call before anything pins.
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            allowed: allowed_cpus().unwrap_or_default(),
            pinned: Cell::new(None),
        }
    }

    /// The CPU the main thread runs on: the highest allowed.
    pub fn main_cpu(&self) -> Option<usize> {
        self.allowed.last().copied()
    }

    /// The lowest allowed CPU: where a second thread goes when it is
    /// meant to run beside the main one (the SPSC rung's consumer).
    pub fn other_cpu(&self) -> Option<usize> {
        self.allowed.first().copied()
    }

    /// Pin the calling thread to [`Host::main_cpu`].
    pub fn pin_main(&self) {
        let stuck = self
            .main_cpu()
            .is_some_and(|cpu| pin_current_thread(cpu).is_ok());
        self.pinned.set(Some(stuck));
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        let pin = match (self.main_cpu(), self.pinned.get()) {
            (Some(cpu), Some(true)) => {
                format!("main thread (and the runtime's worker) pinned to cpu {cpu}")
            }
            (Some(cpu), Some(false)) => format!("main thread NOT pinned (cpu {cpu} refused)"),
            _ => "main thread not pinned".into(),
        };
        format!(
            "host: nproc {}, allowed cpus {:?}, {pin}",
            self.nproc, self.allowed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_mask_to_the_highest_cpu() {
        // On its own thread: the mask is per thread, and the other
        // tests' threads must keep theirs.
        std::thread::spawn(|| {
            let host = Host::detect();
            assert!(!host.allowed.is_empty());
            host.pin_main();
            assert_eq!(allowed_cpus().unwrap(), vec![host.main_cpu().unwrap()]);
            assert!(host.describe().contains("pinned to cpu"));
        })
        .join()
        .unwrap();
    }
}
