//! The multi-campaign control plane (`DESIGN.md` §15).
//!
//! Serves many concurrent fault-injection campaigns over one shared worker
//! fleet: campaigns arrive over HTTP (`grid_submit`), survive restarts in
//! a durable submission queue, and are leased out fair-share to whatever
//! `grid_worker`s connect — v3 (binary wire) and v2 (JSON) alike.
//!
//! ```text
//! avgi grid_service --bind 127.0.0.1:4810 --http 127.0.0.1:4811 \
//!     --queue PATH [--journal-dir DIR] [--batch N] [--lease-ms N] \
//!     [--fsync-every N] [--deadline-s N] [--exit-after N]
//! ```
//!
//! `--exit-after N` makes the service drain the fleet and exit once `N`
//! campaigns have completed — what the CI smoke uses for clean shutdown.

use crate::args::service_config;
use avgi_grid::{Service, ServiceConfig};
use std::process::ExitCode;

pub fn run(mut a: crate::Args) -> ExitCode {
    let mut cfg = service_config(
        &mut a,
        ServiceConfig {
            bind: "127.0.0.1:4810".into(),
            ..ServiceConfig::default()
        },
    );
    cfg.http_bind = a
        .value("--http ADDR")
        .or_else(|| Some("127.0.0.1:4811".into()));
    cfg.queue = a.value("--queue PATH").unwrap_or(cfg.queue);
    cfg.exit_after = a.value("--exit-after N");
    a.finish();
    let service = match Service::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[service] bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[service] fabric on {}, http on {}",
        service
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".into()),
        service
            .http_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into()),
    );
    match service.run() {
        Ok(stats) => {
            eprintln!(
                "[service] exit: {} submitted, {} resumed, {} completed, {} leases \
                 ({} reassigned), {} workers, {} http requests, {} protocol errors, \
                 {} sessions reattached",
                stats.campaigns_submitted,
                stats.campaigns_resumed,
                stats.campaigns_completed,
                stats.leases_granted,
                stats.leases_reassigned,
                stats.workers_seen,
                stats.http_requests,
                stats.protocol_errors,
                stats.sessions_reattached,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[service] failed: {e}");
            ExitCode::FAILURE
        }
    }
}
