//! The load generator: newline-delimited JSON over plain TCP, requests
//! matched to responses by `id` (pipelined responses arrive in completion
//! order).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection with its own line reassembly.
pub struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    /// The read timeout the socket currently has (`None` until first set).
    timeout: Option<Option<Duration>>,
}

impl Wire {
    /// Connects with Nagle's algorithm off, as a latency-sensitive client
    /// would.
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Wire {
            stream,
            buf: Vec::new(),
            start: 0,
            timeout: None,
        })
    }

    /// Writes request lines.
    pub fn send(&mut self, lines: &str) -> Result<(), String> {
        self.stream
            .write_all(lines.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next response line, waiting at most `timeout` (`None`: without
    /// limit; `Some(Duration::ZERO)`: only a line already buffered).
    /// `Ok(None)` means the wait ran out.
    pub fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<String>, String> {
        loop {
            if let Some(offset) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let end = self.start + offset;
                let line = String::from_utf8_lossy(&self.buf[self.start..end]).into_owned();
                self.start = end + 1;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(Some(line));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            if timeout == Some(Duration::ZERO) {
                return Ok(None);
            }
            if self.timeout != Some(timeout) {
                self.stream
                    .set_read_timeout(timeout)
                    .map_err(|e| e.to_string())?;
                self.timeout = Some(timeout);
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Waits for at least one response line, then returns every complete
    /// line already received.
    pub fn recv_ready(&mut self) -> Result<Vec<String>, String> {
        let mut lines = vec![self.recv(None)?.ok_or("no response")?];
        while let Some(line) = self.recv(Some(Duration::ZERO))? {
            lines.push(line);
        }
        Ok(lines)
    }

    /// Sends one request and waits for the response carrying its id.
    pub fn call(&mut self, id: u64, line: &str) -> Result<String, String> {
        self.send(line)?;
        loop {
            let response = self.recv(None)?.ok_or("no response")?;
            if response_id(&response) == Some(id) {
                return Ok(response);
            }
        }
    }
}

/// The `id` of a response line, read without a full parse. Responses are
/// JSON objects with sorted keys, so `"id"` follows at most an `"error"`.
pub fn response_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\":")? + 5;
    let digits: &str = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// One request of a measured stream.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request id.
    pub id: u64,
    /// Index of the circuit in the workload's circuit list.
    pub circuit: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When the request was written.
    pub sent: Instant,
    /// When its response line arrived.
    pub received: Instant,
    /// Whether the server answered with probabilities (not an error).
    pub ok: bool,
}

impl Sample {
    /// Client-observed latency, from the due time.
    pub fn latency(&self) -> Duration {
        self.received - self.due
    }
}

/// Drives a closed loop: keeps `window` requests in flight, replacing the
/// responses of each read with new requests in one write, until `stop`
/// says no more should start; then drains. `next` names the circuit and request line of the
/// `k`-th request; `stop(k, now)` is asked before starting request `k`;
/// `check(circuit, line)` inspects every response as it arrives (so no
/// response is kept) and says whether the server answered without error.
pub fn closed_loop(
    wire: &mut Wire,
    window: usize,
    first_id: u64,
    mut next: impl FnMut(usize, u64) -> (usize, String),
    mut stop: impl FnMut(usize, Instant) -> bool,
    mut check: impl FnMut(usize, &str) -> bool,
) -> Result<Vec<Sample>, String> {
    let mut pending: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut samples = Vec::new();
    let mut started = 0usize;
    let mut open = true;
    let mut batch = String::new();
    let mut fresh = Vec::with_capacity(window);
    loop {
        batch.clear();
        fresh.clear();
        while open && pending.len() + fresh.len() < window {
            if stop(started, Instant::now()) {
                open = false;
                break;
            }
            let id = first_id + started as u64;
            let (circuit, line) = next(started, id);
            batch.push_str(&line);
            fresh.push((id, circuit));
            started += 1;
        }
        if !batch.is_empty() {
            let sent = Instant::now();
            wire.send(&batch)?;
            pending.extend(fresh.iter().map(|&(id, circuit)| (id, (circuit, sent))));
        }
        if pending.is_empty() {
            return Ok(samples);
        }
        for response in wire.recv_ready()? {
            let received = Instant::now();
            let id =
                response_id(&response).ok_or_else(|| format!("response without id: {response}"))?;
            let (circuit, sent) = pending
                .remove(&id)
                .ok_or_else(|| format!("response to unknown id {id}"))?;
            samples.push(Sample {
                id,
                circuit,
                due: sent,
                sent,
                received,
                ok: check(circuit, &response),
            });
        }
    }
}

/// Drives an open loop: request `k` is due at `start + k / rate`, sent as
/// soon as the generator gets to it, and timed from its due time. Sends
/// `count` requests, then drains. `next` and `check` are as for
/// [`closed_loop`].
pub fn open_loop(
    wire: &mut Wire,
    start: Instant,
    rate: f64,
    count: usize,
    first_id: u64,
    mut next: impl FnMut(usize, u64) -> (usize, String),
    mut check: impl FnMut(usize, &str) -> bool,
) -> Result<Vec<Sample>, String> {
    let mut pending: HashMap<u64, (usize, Instant, Instant)> = HashMap::new();
    let mut samples = Vec::new();
    let mut started = 0usize;
    while started < count || !pending.is_empty() {
        let due = start + Duration::from_secs_f64(started as f64 / rate);
        let now = Instant::now();
        if started < count && now >= due {
            let id = first_id + started as u64;
            let (circuit, line) = next(started, id);
            let sent = Instant::now();
            wire.send(&line)?;
            pending.insert(id, (circuit, due, sent));
            started += 1;
            continue;
        }
        let wait = (started < count).then(|| due - now);
        if let Some(response) = wire.recv(wait)? {
            let received = Instant::now();
            let id =
                response_id(&response).ok_or_else(|| format!("response without id: {response}"))?;
            let (circuit, due, sent) = pending
                .remove(&id)
                .ok_or_else(|| format!("response to unknown id {id}"))?;
            samples.push(Sample {
                id,
                circuit,
                due,
                sent,
                received,
                ok: check(circuit, &response),
            });
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_read_from_either_response_shape() {
        assert_eq!(response_id(r#"{"id":42,"probs":[0.5]}"#), Some(42));
        assert_eq!(response_id(r#"{"error":"x","id":7}"#), Some(7));
        assert_eq!(response_id(r#"{"error":"invalid JSON"}"#), None);
    }
}
