//! The server under test: a `gfomc-serve` child process on a loopback
//! port, plus the introspection reads the benchmark makes outside the
//! timed window.

use gfomc_serve::Client;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// A running `gfomc-serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: String,
}

/// Cumulative engine counters, read from `/cache` and `/routes`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub lifted: u64,
    pub compiled: u64,
    pub sampled: u64,
}

impl Counters {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            lifted: self.lifted - earlier.lifted,
            compiled: self.compiled - earlier.compiled,
            sampled: self.sampled - earlier.sampled,
        }
    }

    /// Cache hits over lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl Server {
    /// Starts `bin` on an OS-assigned loopback port and waits until it
    /// reports the address it listens on.
    pub fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address: {line:?}"));
            }
        };
        Ok(Server { child, addr })
    }

    /// The process's peak resident set (`VmHWM`) in MiB since it started
    /// or since the previous call, whichever is later: each call resets
    /// the peak to the current resident set.
    pub fn take_peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let peak = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        // `5` resets the peak (proc(5), /proc/pid/clear_refs).
        let reset = format!("/proc/{}/clear_refs", self.child.id());
        std::fs::write(&reset, "5").map_err(|e| format!("{reset}: {e}"))?;
        Ok(peak)
    }

    fn get(&self, path: &str) -> Result<String, String> {
        let resp = Client::new(self.addr.clone())
            .get(path)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET {path}: status {}", resp.status));
        }
        Ok(resp.body)
    }

    /// Reads the engine's cache and route counters over the wire.
    pub fn counters(&self) -> Result<Counters, String> {
        let cache = self.get("/cache")?;
        let routes = self.get("/routes")?;
        let field = |text: &str, key: &str| -> Result<u64, String> {
            let words: Vec<&str> = text.lines().flat_map(str::split_whitespace).collect();
            words
                .windows(2)
                .find(|w| w[0] == key)
                .and_then(|w| w[1].parse().ok())
                .ok_or_else(|| format!("no '{key}' counter in {text:?}"))
        };
        // `/routes` starts with the global `total ...` line.
        let total = routes.lines().next().unwrap_or("");
        Ok(Counters {
            hits: field(&cache, "hits")?,
            misses: field(&cache, "misses")?,
            evictions: field(&cache, "evictions")?,
            lifted: field(total, "lifted")?,
            compiled: field(total, "compiled")?,
            sampled: field(total, "sampled")?,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
