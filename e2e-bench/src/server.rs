//! The server under test: a `ddpa serve` child process on loopback.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use ddpa_serve::{proto::build, Client};

/// A running `ddpa serve` child. Dropping it kills the child and waits
/// for it; [`ServerChild::shutdown`] stops it cleanly instead.
pub struct ServerChild {
    child: Child,
    // Held open so the server's later stdout writes do not fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Starts `ddpa serve` on an ephemeral loopback port with `flags`
    /// added to the defaults, and waits for its listening line.
    pub fn spawn(ddpa: &Path, flags: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(ddpa)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ddpa.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("ddpa-serve listening on "))
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        Ok(ServerChild {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Peak resident set of the child so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_vm_hwm_kib(&status)
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = self.connect()?;
        client
            .expect_ok(&build::shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The `VmHWM` (peak resident set) value of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    let (number, unit) = rest.split_once(char::is_whitespace)?;
    if unit.trim() != "kB" {
        return None;
    }
    number.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tddpa\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t twelve kB\n"), None);
    }
}
