//! The daemon's local workers: `lanes × workers` `nfi worker --addr
//! <self> --threads 1` children that keep the [`crate::fleet`] staffed.
//!
//! * A child runs on a stdin pipe the daemon never writes. `nfi worker`
//!   exits when its stdin is a pipe that closes, so no child outlives
//!   the daemon, however the daemon dies.
//! * A child authenticates with a per-daemon secret it reads from
//!   `--token-file` (`write_token`), never from argv, so local
//!   workers need no operator-provisioned `worker:` token. The edge
//!   also exempts the secret from the per-client rate limit, since the
//!   children share the loopback address with local clients.
//! * `LocalWorkers::check` marks an exited child lost in the fleet at
//!   once, so its lease requeues without waiting out the heartbeat
//!   timeout. It kills a child the fleet marked lost: silent past the
//!   heartbeat timeout, or holding a lease past the assignment timeout.
//!   Both are replaced, each spawn under a fresh worker name, so a
//!   replacement never inherits its predecessor's lost registration.

use crate::auth::AuthTokens;
use crate::fleet::Fleet;
use nfi_telemetry::{log::log, Level};
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The secret file local workers read their token from, under the
/// state dir.
pub(crate) const TOKEN_FILE: &str = "local-worker.token";

/// How often the supervisor looks at its children.
pub(crate) const CHECK: Duration = Duration::from_millis(50);

/// The least time between two spawns of one slot, so a binary that
/// cannot run does not spin the supervisor.
const RESPAWN_GAP: Duration = Duration::from_millis(500);

/// Writes a fresh per-daemon secret as a `worker:<secret>` line,
/// readable by the daemon's user only, and returns it as a one-entry
/// token table for the edge.
///
/// # Errors
///
/// Reports an unreadable `/dev/urandom` or an unwritable state dir.
pub(crate) fn write_token(state_dir: &Path) -> Result<AuthTokens, String> {
    let mut bytes = [0u8; 16];
    std::fs::File::open("/dev/urandom")
        .and_then(|mut f| f.read_exact(&mut bytes))
        .map_err(|e| format!("cannot draw the local worker secret: {e}"))?;
    let secret: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    let line = format!("{}:{secret}\n", crate::router::WORKER_TENANT);
    let path = state_dir.join(TOKEN_FILE);
    let _ = std::fs::remove_file(&path);
    let mut options = std::fs::OpenOptions::new();
    options.write(true).create_new(true);
    #[cfg(unix)]
    std::os::unix::fs::OpenOptionsExt::mode(&mut options, 0o600);
    options
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    AuthTokens::parse(&line)
}

struct Slot {
    name: String,
    child: Option<Child>,
    /// When the slot last tried to spawn.
    started: Instant,
}

/// The supervised children. Dropping it kills and reaps them all.
pub(crate) struct LocalWorkers {
    binary: PathBuf,
    addr: SocketAddr,
    token_file: PathBuf,
    slots: Vec<Slot>,
    spawns: u64,
}

impl LocalWorkers {
    /// Starts `count` children of `binary` working for the daemon
    /// listening on `addr`.
    ///
    /// # Errors
    ///
    /// Reports a binary that cannot be spawned; children already
    /// started are killed.
    pub(crate) fn start(
        binary: &Path,
        addr: SocketAddr,
        state_dir: &Path,
        count: usize,
    ) -> Result<LocalWorkers, String> {
        // A wildcard listen address is not a destination; the children
        // dial loopback on the same port.
        let mut addr = addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let mut local = LocalWorkers {
            binary: binary.to_path_buf(),
            addr,
            token_file: state_dir.join(TOKEN_FILE),
            slots: Vec::with_capacity(count),
            spawns: 0,
        };
        for _ in 0..count {
            let (name, child) = local.spawn()?;
            local.slots.push(Slot {
                name,
                child: Some(child),
                started: Instant::now(),
            });
        }
        Ok(local)
    }

    fn spawn(&mut self) -> Result<(String, Child), String> {
        self.spawns += 1;
        let name = format!("local-{}.{}", std::process::id(), self.spawns);
        Command::new(&self.binary)
            .arg("worker")
            .arg("--addr")
            .arg(self.addr.to_string())
            .args(["--threads", "1", "--name", &name, "--token-file"])
            .arg(&self.token_file)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map(|child| (name, child))
            .map_err(|e| {
                format!(
                    "cannot start a local worker ({}): {e}",
                    self.binary.display()
                )
            })
    }

    /// One supervision pass: reap children that exited or that the
    /// fleet marked lost, and respawn empty slots.
    pub(crate) fn check(&mut self, fleet: &Fleet) {
        for at in 0..self.slots.len() {
            let slot = &mut self.slots[at];
            if let Some(child) = &mut slot.child {
                let exited = !matches!(child.try_wait(), Ok(None));
                if exited || fleet.is_lost(&slot.name) {
                    let _ = child.kill();
                    let _ = child.wait();
                    fleet.lose(&slot.name);
                    log(
                        Level::Warn,
                        "local_worker_replaced",
                        &[
                            ("name", &slot.name),
                            ("reason", if exited { "exited" } else { "lost" }),
                        ],
                    );
                    slot.child = None;
                }
            }
            if slot.child.is_some() || slot.started.elapsed() < RESPAWN_GAP {
                continue;
            }
            let spawned = self.spawn();
            let slot = &mut self.slots[at];
            slot.started = Instant::now();
            match spawned {
                Ok((name, child)) => {
                    slot.name = name;
                    slot.child = Some(child);
                }
                Err(e) => log(Level::Error, "local_worker_spawn_failed", &[("error", &e)]),
            }
        }
    }
}

impl Drop for LocalWorkers {
    fn drop(&mut self) {
        for child in self.slots.iter_mut().filter_map(|s| s.child.as_mut()) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    /// A shell script posing as the `nfi` binary.
    fn fake_nfi(dir: &Path, body: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("fake-nfi.sh");
        std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    #[test]
    fn exited_children_are_lost_at_once_and_lost_children_are_killed_and_replaced() {
        let dir = std::env::temp_dir().join(format!("nfi-local-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let binary = fake_nfi(&dir, "exec sleep 600");
        let fp = nfi_pylite::MachineConfig::default().fingerprint();
        let fleet = Fleet::new(fp, Duration::from_secs(30), 2, None);
        let mut local =
            LocalWorkers::start(&binary, "0.0.0.0:9".parse().unwrap(), &dir, 2).unwrap();
        assert_eq!(local.addr, "127.0.0.1:9".parse().unwrap());
        let names: Vec<String> = local.slots.iter().map(|s| s.name.clone()).collect();
        for name in &names {
            fleet.register(name, fp).unwrap();
        }

        // Slot 0's child exits: the next pass marks it lost at once; the
        // replacement waits out the respawn gap.
        let first = local.slots[0].child.as_mut().unwrap();
        first.kill().unwrap();
        first.wait().unwrap();
        local.check(&fleet);
        assert!(fleet.is_lost(&names[0]));
        assert!(
            local.slots[0].child.is_none(),
            "{RESPAWN_GAP:?} after its spawn"
        );

        // Slot 1's child still runs, but the fleet lost it (a heartbeat
        // or assignment timeout): the pass kills it.
        let pid = local.slots[1].child.as_ref().unwrap().id();
        fleet.lose(&names[1]);
        local.check(&fleet);
        assert!(local.slots[1].child.is_none());
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "killed and reaped"
        );

        std::thread::sleep(RESPAWN_GAP);
        local.check(&fleet);
        let replaced: Vec<&str> = local.slots.iter().map(|s| s.name.as_str()).collect();
        assert!(
            local.slots.iter().all(|s| s.child.is_some()),
            "both respawned"
        );
        assert!(!replaced.contains(&names[0].as_str()) && !replaced.contains(&names[1].as_str()));
        drop(local);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
