//! Driving `ppe serve` child processes: spawning over stdio or TCP, a
//! pipelined closed-loop driver, and the server's CPU time and peak RSS
//! from `/proc`.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// A line-protocol connection to a server.
pub struct Conn {
    writer: Box<dyn Write>,
    reader: Box<dyn BufRead>,
    buf: String,
}

impl Conn {
    /// Sends one request line (flushed).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Receives one response line (without the newline).
    pub fn recv(&mut self) -> io::Result<&str> {
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end())
    }

    /// One round trip.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.send(line)?;
        self.recv()
    }
}

/// A running `ppe serve` process.
pub struct Server {
    child: Child,
    stderr: Option<thread::JoinHandle<String>>,
}

impl Server {
    /// Spawns `ppe serve ARGS` on stdio and waits until it answers a
    /// health check.
    pub fn stdio(ppe: &Path, args: &[&str]) -> io::Result<(Server, Conn)> {
        let mut child = Command::new(ppe)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped");
        let stdout = child.stdout.take().expect("piped");
        let stderr = drain(child.stderr.take().expect("piped"));
        let mut conn = Conn {
            writer: Box::new(BufWriter::new(stdin)),
            reader: Box::new(BufReader::with_capacity(1 << 16, stdout)),
            buf: String::new(),
        };
        let server = Server {
            child,
            stderr: Some(stderr),
        };
        health(&mut conn)?;
        Ok((server, conn))
    }

    /// Spawns `ppe serve --listen 127.0.0.1:0 ARGS`, connects one client
    /// (`TCP_NODELAY`) and waits until it answers a health check.
    pub fn tcp(ppe: &Path, args: &[&str]) -> io::Result<(Server, Conn)> {
        let mut child = Command::new(ppe)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
        let mut first = String::new();
        stderr.read_line(&mut first)?;
        let addr = first
            .trim()
            .strip_prefix("; listening on ")
            .map(str::to_owned);
        let server = Server {
            child,
            stderr: Some(drain(stderr)),
        };
        let Some(addr) = addr else {
            return Err(io::Error::other(format!("unexpected first line `{first}`")));
        };
        let stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            writer: Box::new(BufWriter::new(stream.try_clone()?)),
            reader: Box::new(BufReader::with_capacity(1 << 16, stream)),
            buf: String::new(),
        };
        health(&mut conn)?;
        Ok((server, conn))
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time the server's threads have used so far, nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        cpu_ns(self.pid())
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_kib(self.pid()) as f64 / 1024.0
    }

    /// Sends `shutdown` on `conn`, closes it and waits for the process to
    /// exit (killing it after 30 s). Returns the server's stderr.
    pub fn shutdown(mut self, mut conn: Conn) -> io::Result<String> {
        let acked = conn
            .call(r#"{"cmd":"shutdown"}"#)
            .map(|l| l.contains("\"shutdown\":true"));
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                break self.child.wait()?;
            }
            thread::sleep(Duration::from_millis(1));
        };
        let stderr = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !acked.unwrap_or(false) || !status.success() {
            return Err(io::Error::other(format!(
                "server did not shut down cleanly ({status}): {stderr}"
            )));
        }
        Ok(stderr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn drain(mut r: impl Read + Send + 'static) -> thread::JoinHandle<String> {
    thread::spawn(move || {
        let mut s = String::new();
        let _ = r.read_to_string(&mut s);
        s
    })
}

fn health(conn: &mut Conn) -> io::Result<()> {
    let line = conn.call(r#"{"cmd":"health"}"#)?;
    if line.contains("\"health\":\"ok\"") {
        Ok(())
    } else {
        Err(io::Error::other(format!("bad health answer `{line}`")))
    }
}

/// Sum of on-CPU time over the threads of `pid`
/// (`/proc/<pid>/task/*/schedstat`, nanoseconds). The tick-granular
/// `utime`/`stime` of `/proc/<pid>/stat` (10 ms) is too coarse for the
/// short-lived servers of `disk_restart`.
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `VmHWM` of `pid` in KiB (0 if unreadable).
pub fn peak_rss_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs a closed loop with up to `window` requests outstanding: `next`
/// yields the next request (or `None` to stop issuing), `done` receives
/// each request back with its response line and latency. Responses come
/// back in request order.
///
/// # Errors
///
/// I/O errors on the connection.
pub fn pipeline<T>(
    conn: &mut Conn,
    window: usize,
    mut next: impl FnMut() -> Option<(T, std::sync::Arc<str>)>,
    mut done: impl FnMut(T, &str, Duration),
) -> io::Result<()> {
    let mut pending: VecDeque<(T, Instant)> = VecDeque::with_capacity(window);
    let mut exhausted = false;
    loop {
        while !exhausted && pending.len() < window {
            match next() {
                Some((item, line)) => {
                    let sent = Instant::now();
                    conn.send(&line)?;
                    pending.push_back((item, sent));
                }
                None => exhausted = true,
            }
        }
        let Some((item, sent)) = pending.pop_front() else {
            return Ok(());
        };
        let line = conn.recv()?;
        let latency = sent.elapsed();
        done(item, line, latency);
    }
}

/// Whole-machine CPU time counters from `/proc/stat`: (steal, total)
/// in clock ticks. A virtual machine's vCPUs lose steal time to the host.
pub fn host_steal() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}
