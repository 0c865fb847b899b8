//! The program under test for the serving workloads: a `predtop serve`
//! child process on a Unix socket, plus the connection type the load
//! generators speak the framed protocol over.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use predtop_service::api::{Request, Response};
use predtop_service::wire::Client;

use crate::util::peak_rss_mb;

/// A running daemon.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

/// How long a launch may take before it counts as failed.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

impl Daemon {
    /// Launch `predtop serve` on `socket` with `extra` flags and wait
    /// until it has answered one `Stats` request. Returns the daemon and
    /// the seconds from spawn to that first answer.
    pub fn launch(
        predtop: &Path,
        socket: &Path,
        extra: &[String],
    ) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(socket);
        let started = Instant::now();
        let child = Command::new(predtop)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", predtop.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let mut client = Client::new(stream);
                if let Ok(Response::Stats(_)) = client.call(&Request::Stats) {
                    return Ok((daemon, started.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                daemon.kill();
                return Err("daemon did not become ready".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Client<UnixStream>, String> {
        UnixStream::connect(&self.socket)
            .map(Client::new)
            .map_err(|e| format!("connect to daemon: {e}"))
    }

    /// Peak resident memory of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Ask the daemon to drain, and wait for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acknowledged = match self.connect() {
            Ok(mut c) => matches!(c.call(&Request::Shutdown), Ok(Response::Bye)),
            Err(_) => false,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && acknowledged => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon ended badly: {status}")),
                Ok(None) if Instant::now() > deadline => {
                    self.kill();
                    return Err("daemon did not drain".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}
