//! The socket server under test: `mmsec serve --listen unix:...`, run as
//! a child process and stopped (and waited for) when dropped.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    /// Starts a server with `shards` shard workers and `policy` lanes on
    /// the platform file `platform`, and returns it with the seconds from
    /// spawn until its socket accepted a connection.
    pub fn spawn(
        mmsec: &Path,
        dir: &Path,
        platform: &Path,
        policy: &str,
        shards: usize,
    ) -> io::Result<(Server, f64)> {
        let sock = dir.join("serve.sock");
        let _ = std::fs::remove_file(&sock);
        let t0 = Instant::now();
        let child = Command::new(mmsec)
            .arg("serve")
            .arg("--instance")
            .arg(platform)
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .args(["--shards", &shards.to_string()])
            .args(["--policy", policy])
            .args(["--server-heartbeat-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut server = Server { child, sock };
        loop {
            if let Ok(probe) = UnixStream::connect(&server.sock) {
                let setup = t0.elapsed().as_secs_f64();
                drop(probe);
                return Ok((server, setup));
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited at start: {status}"
                )));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(io::Error::other("server did not accept within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    pub fn connect(&self) -> io::Result<UnixStream> {
        UnixStream::connect(&self.sock)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}
