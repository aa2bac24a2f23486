//! Child processes: spawn, capture stdout in memory, reap with `wait4`
//! for the peak RSS, signal.
//!
//! std already links libc, so `wait4`, `kill` and `memfd_create` are
//! declared here rather than pulled from a crate.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::os::fd::FromRawFd;
use std::os::raw::{c_char, c_int, c_long, c_uint};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const SIGTERM: c_int = 15;
const MFD_CLOEXEC: c_uint = 1;
const SC_CLK_TCK: c_int = 2;

/// An in-memory file that receives a child's stdout. It never touches the
/// disk, so no writeback lands in a timed region, and the benchmark reads
/// the output only after the child has exited.
pub struct Capture(File);

impl Capture {
    pub fn new() -> io::Result<Capture> {
        // SAFETY: the name is a NUL-terminated literal that outlives the
        // call; memfd_create(2) only reads it and returns a new descriptor
        // or -1.
        let fd = unsafe { memfd_create(c"perfbench-stdout".as_ptr(), MFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just created above and nothing else owns it.
        Ok(Capture(unsafe { File::from_raw_fd(fd) }))
    }

    /// Empties the file and hands a descriptor to the next child.
    fn stdio(&mut self) -> io::Result<Stdio> {
        self.0.set_len(0)?;
        self.0.seek(SeekFrom::Start(0))?;
        Ok(Stdio::from(self.0.try_clone()?))
    }

    /// What the last child wrote.
    pub fn contents(&mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.0.seek(SeekFrom::Start(0))?;
        self.0.read_to_end(&mut out)?;
        Ok(out)
    }
}

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    pub pid: i32,
    /// Raw wait status; 0 means "exited with code 0".
    pub status: i32,
    /// Peak resident set size, in KiB.
    pub maxrss_kb: c_long,
    /// CPU time, user plus system, over all of the child's threads. The
    /// kernel leaves out the time the hypervisor ran other guests on the
    /// child's vCPU (steal time), which wall time includes.
    pub cpu: Duration,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.status == 0
    }

    pub fn cpu_s(&self) -> f64 {
        self.cpu.as_secs_f64()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.maxrss_kb as f64 / 1024.0
    }
}

fn duration(tv: &Timeval) -> Duration {
    let secs = u64::try_from(tv.tv_sec).unwrap_or(0);
    let micros = u32::try_from(tv.tv_usec).unwrap_or(0);
    Duration::from_secs(secs) + Duration::from_micros(u64::from(micros))
}

/// Reaps `pid` (or any child when `pid` is -1), blocking until one exits.
pub fn reap(pid: i32) -> io::Result<Exit> {
    let mut status: c_int = 0;
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable locals of the types
        // wait4(2) expects (`struct rusage` matches the Linux layout above);
        // the kernel writes only within them, and nothing else aliases them.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r >= 0 {
            return Ok(Exit {
                pid: r,
                status,
                maxrss_kb: ru.ru_maxrss,
                cpu: duration(&ru.ru_utime) + duration(&ru.ru_stime),
            });
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Asks `child` to drain and exit.
pub fn terminate(child: &Child) -> io::Result<()> {
    let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // `pid` is our own unreaped child, so the id cannot have been recycled.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// CPU time, user plus system, that a live process has used so far over
/// all its threads (exited ones too), from `/proc/<pid>/stat`. Like
/// [`Exit::cpu`] it leaves out steal time; its resolution is one clock
/// tick (10 ms on Linux), so callers measure spans of seconds.
pub fn cpu_of(pid: u32) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; the fields after it do not. utime
    // and stime are fields 14 and 15, the 12th and 13th after the name.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let ticks: Vec<u64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    if ticks.len() != 2 {
        return Err(io::Error::other("malformed /proc stat"));
    }
    // SAFETY: sysconf(3) takes a plain integer and touches no memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let hz = u64::try_from(hz).ok().filter(|&h| h > 0).unwrap_or(100);
    Ok(Duration::from_secs_f64(
        (ticks[0] + ticks[1]) as f64 / hz as f64,
    ))
}

/// Peak resident set size of a live process, from `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line"))
}

/// Where a child's stdin comes from.
pub enum Input<'a> {
    Empty,
    File(&'a Path),
}

/// One finished child: wall time from spawn to reap, and how it ended.
pub struct Timed {
    pub wall: Duration,
    pub exit: Exit,
}

/// Spawns `program args…` with stdout into `out` and stderr discarded.
pub fn spawn(program: &Path, args: &[&str], stdin: Input, out: &mut Capture) -> io::Result<Child> {
    let stdin = match stdin {
        Input::Empty => Stdio::null(),
        Input::File(p) => Stdio::from(File::open(p)?),
    };
    Command::new(program)
        .args(args)
        .stdin(stdin)
        .stdout(out.stdio()?)
        .stderr(Stdio::null())
        .spawn()
}

/// Runs one child to completion. The calling process does nothing but
/// wait while it runs: stdin is a file and stdout a [`Capture`].
pub fn run_timed(
    program: &Path,
    args: &[&str],
    stdin: Input,
    out: &mut Capture,
) -> io::Result<Timed> {
    let t0 = Instant::now();
    let child = spawn(program, args, stdin, out)?;
    let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;
    let exit = reap(pid)?;
    Ok(Timed {
        wall: t0.elapsed(),
        exit,
    })
}
