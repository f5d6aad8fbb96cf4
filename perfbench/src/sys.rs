//! Process helpers the standard library lacks: reaping a child with its
//! resource usage (`wait4(2)`), signalling it, reading a live process's
//! peak RSS and CPU time from `/proc`, and parking stdout while in-process
//! library calls print their text renditions.

use std::fs::File;
use std::io::{self, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::process::Child;
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn dup(fd: i32) -> i32;
    fn dup2(old: i32, new: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const WNOHANG: i32 = 1;
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;

/// How a reaped child ended.
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Peak resident set size of the child, in KiB.
    pub max_rss_kb: u64,
}

fn wait_pid(pid: i32, options: i32) -> io::Result<Option<Exit>> {
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the sizes `wait4` writes.
        let rc = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if rc == pid {
            return Ok(Some(Exit {
                success: status == 0,
                max_rss_kb: usage.maxrss_kb.max(0) as u64,
            }));
        }
        if rc == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Blocks until `child` exits and reaps it. The caller must not also call
/// `Child::wait`: the process is gone once this returns.
pub fn wait(child: Child) -> io::Result<Exit> {
    let exit = wait_pid(child.id() as i32, 0)?;
    Ok(exit.expect("blocking wait4 returns the child"))
}

/// Sends SIGTERM, waits up to `grace` for a clean exit, then SIGKILLs.
/// Returns whether the child exited cleanly on SIGTERM.
pub fn terminate(child: Child, grace: Duration) -> io::Result<bool> {
    let pid = child.id() as i32;
    // SAFETY: plain syscall on a pid this process spawned and has not reaped.
    unsafe { kill(pid, SIGTERM) };
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if let Some(exit) = wait_pid(pid, WNOHANG)? {
            return Ok(exit.success);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // SAFETY: as above; the child is still unreaped.
    unsafe { kill(pid, SIGKILL) };
    wait_pid(pid, 0)?;
    Ok(false)
}

fn proc_status_kb(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak RSS (`VmHWM`) of a live process in MiB; `pid` may be `"self"`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_status_kb(pid, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User plus system CPU time consumed so far by a live process, in ms.
pub fn cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 = fields
        .get(11..13)
        .map(|f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum())
        .unwrap_or(0);
    // SAFETY: sysconf reads a constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    ticks as f64 * 1000.0 / hz
}

/// Points fd 1 at `/dev/null` until dropped, so the text tables the
/// experiment functions print cannot interleave with the result line.
pub struct ParkedStdout {
    saved: OwnedFd,
}

impl ParkedStdout {
    pub fn park() -> io::Result<ParkedStdout> {
        io::stdout().flush()?;
        let null = File::options().write(true).open("/dev/null")?;
        // SAFETY: duplicating fd 1, which is open for the whole process.
        let saved = unsafe { dup(1) };
        if saved < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `saved` is a fresh descriptor this process owns.
        let saved = unsafe { OwnedFd::from_raw_fd(saved) };
        // SAFETY: both descriptors are open; dup2 replaces fd 1 atomically.
        if unsafe { dup2(null.as_raw_fd(), 1) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(ParkedStdout { saved })
    }
}

impl Drop for ParkedStdout {
    fn drop(&mut self) {
        let _ = io::stdout().flush();
        // SAFETY: `saved` stays open until this guard is dropped.
        unsafe { dup2(self.saved.as_raw_fd(), 1) };
    }
}

/// The first CPU this process may run on.
pub fn first_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
}

/// Restricts the calling thread (and threads it spawns later) to `cpu`.
/// Async-signal-safe, so it may run between fork and exec.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
