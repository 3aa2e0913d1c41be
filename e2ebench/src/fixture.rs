//! Set-up shared by the query and serve phases: a registry holding one
//! recorded fixture run, the probes warmed for serving, and the socket
//! server over it.

use crate::inputs::Inputs;
use flor_core::logstream::LogEntry;
use flor_net::Endpoint;
use flor_registry::{Registry, RunRecord, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Runs each set-up records. The first is warmed and served; every one
/// is queried (see the query phase for why recordings are rotated).
pub const RUN_IDS: [&str; 2] = ["fixture", "fixture-b"];
pub const RUN_ID: &str = RUN_IDS[0];

/// A probe whose answer the cache already holds.
pub struct Warm {
    /// Probe file, relative to the working directory (what `stream` names).
    pub path: String,
    pub src: String,
    pub log: Vec<LogEntry>,
    /// `Display` of each log entry: the payload of its `+entry` line.
    pub lines: Vec<String>,
}

pub struct Fixture {
    pub dir: PathBuf,
    pub registry: Arc<Registry>,
    /// One catalog record per entry of [`RUN_IDS`].
    pub runs: Vec<RunRecord>,
    pub warm: Vec<Warm>,
    pub server: ServerHandle,
    pub endpoint: Endpoint,
}

impl Fixture {
    /// Records the fixture runs into a fresh registry under `dir`, warms
    /// the serve probes with fresh queries, and starts the server on a
    /// Unix socket (a relative path: socket paths are length-limited, the
    /// working directory's absolute path is not).
    pub fn build(inputs: &Inputs, dir: &Path) -> Result<Fixture, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let registry = Arc::new(Registry::open(dir.join("reg")).map_err(|e| e.to_string())?);
        let mut runs = Vec::new();
        for id in RUN_IDS {
            let (_, run) = registry
                .record_run(id, &inputs.script, |o| o.adaptive = false)
                .map_err(|e| format!("recording the fixture: {e}"))?;
            runs.push(run);
        }
        let mut warm = Vec::new();
        for (i, &(kind, k)) in inputs.warm.iter().enumerate() {
            let src = inputs.probe(kind, k);
            let path = dir.join(format!("warm{i}.flr"));
            std::fs::write(&path, &src).map_err(|e| format!("write probe: {e}"))?;
            let out = registry
                .query(RUN_ID, &src, 2)
                .map_err(|e| format!("warming probe {i}: {e}"))?;
            if out.cached || !out.anomalies.is_empty() {
                return Err(format!(
                    "warming probe {i}: cached={} anomalies={:?}",
                    out.cached, out.anomalies
                ));
            }
            warm.push(Warm {
                path: path.to_string_lossy().into_owned(),
                src,
                lines: out.log.iter().map(|e| e.to_string()).collect(),
                log: out.log,
            });
        }
        let endpoint = Endpoint::Unix(dir.join("serve.sock"));
        let server = Server::start(
            registry.clone(),
            ServerConfig {
                endpoints: vec![endpoint.clone()],
                pool_workers: 2,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("starting the server: {e}"))?;
        Ok(Fixture {
            dir: dir.to_path_buf(),
            registry,
            runs,
            warm,
            server,
            endpoint,
        })
    }

    /// Stops the server and deletes the fixture's files.
    pub fn teardown(mut self) {
        self.server.shutdown();
        drop(self.registry);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
