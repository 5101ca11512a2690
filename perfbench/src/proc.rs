//! Spawning the shipped `sigrule` binary: timed one-shot runs with their
//! peak memory, and served processes on loopback TCP.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct timeval` of the C library on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the C library on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns whether it exited with code 0 and its peak
/// resident set in KiB.
fn reap(child: &Child) -> std::io::Result<(bool, i64)> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C library's `int` and `struct rusage`; `pid` is our own
        // un-reaped child, so wait4 writes only through these pointers.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            // WIFEXITED && WEXITSTATUS == 0.
            let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
            return Ok((exited_ok, usage.maxrss_kb));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// What a one-shot run produced.
pub struct RunOutput {
    pub wall: Duration,
    pub stdout: String,
    pub success: bool,
    pub peak_rss_mb: f64,
}

/// Runs `sigrule ARGS` to completion from `cwd`, timing spawn to exit.
/// Stderr goes to `stderr_log`.
pub fn run_timed(
    sigrule: &Path,
    args: &[String],
    cwd: &Path,
    stderr_log: &Path,
) -> std::io::Result<RunOutput> {
    let start = Instant::now();
    let mut child = Command::new(sigrule)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(stderr_log)?)
        .spawn()?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)?;
    let (success, maxrss_kb) = reap(&child)?;
    Ok(RunOutput {
        wall: start.elapsed(),
        stdout,
        success,
        peak_rss_mb: maxrss_kb as f64 / 1024.0,
    })
}

/// A `sigrule serve --listen tcp:127.0.0.1:0` process.  Dropping it shuts
/// it down and waits for it.
pub struct Server {
    child: Option<Child>,
    pub port: u16,
}

/// Read deadline on every request; a missing answer counts as timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

impl Server {
    /// Spawns a server and waits for its ready line.
    pub fn spawn(sigrule: &Path, cwd: &Path, stderr_log: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(sigrule)
            .args(["serve", "--listen", "tcp:127.0.0.1:0"])
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(stderr_log)?)
            .spawn()?;
        let mut ready = String::new();
        BufReader::new(child.stdout.take().expect("stdout was piped")).read_line(&mut ready)?;
        let port = ready
            .split("tcp:127.0.0.1:")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .and_then(|p| p.parse().ok());
        let Some(port) = port else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "no ready line from serve: {ready:?}"
            )));
        };
        Ok(Server {
            child: Some(child),
            port,
        })
    }

    pub fn addr(&self) -> String {
        format!("tcp:127.0.0.1:{}", self.port)
    }

    pub fn connect(&self) -> std::io::Result<Conn> {
        Conn::open(self.port)
    }

    /// Peak resident set so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let Some(child) = &self.child else { return 0.0 };
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        if let Ok(mut conn) = Conn::open(self.port) {
            let _ = conn.request(r#"{"cmd":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection speaking JSON lines.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads one response line (newline kept
    /// off).  An empty read means the server closed the connection.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        resp.truncate(resp.trim_end().len());
        Ok(resp)
    }
}

/// A work directory inside the checkout for generated inputs and logs.
pub fn work_dir(root: &Path, workload: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(".perfbench").join(workload);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
