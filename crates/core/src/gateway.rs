//! The async gateway: a runtime-agnostic executor pair and a socket
//! front end that multiplexes thousands of in-flight requests from a
//! small fixed pool of OS threads.
//!
//! The serving queue ([`crate::server`]) already coalesces and bounds
//! admission, but `RequestHandle::wait` costs one parked OS thread per
//! in-flight request — fine for examples, fatal for the paper's
//! datacenter-scale pitch. This module is the other delivery story,
//! built entirely on the handle's notification cell
//! ([`RequestHandle::on_complete`] and its [`std::future::Future`]
//! impl):
//!
//! * [`block_on`] / [`LocalPool`] — a dependency-free executor pair
//!   (only [`std::task`]), so `handle.await` works offline with no
//!   async runtime installed. Any other executor (tokio, async-std,
//!   smol) drives the same futures unchanged.
//! * [`Gateway`] — a TCP front end speaking a length-prefixed binary
//!   protocol: model id + image bytes in, prediction +
//!   `(generation, age)` + a [`crate::engine::RunStats`] summary (and
//!   the full output bytes, so clients can verify bit-identity) out.
//!   A fixed pool of IO threads owns the nonblocking sockets. Each
//!   blocks in one `poll(2)` over its wake pipe, the listener and the
//!   connections that want to read or write, then pumps only the
//!   sockets that are ready. Request completions wake the owning IO
//!   thread through the same `on_complete` hook, by one byte on its
//!   wake pipe — holding 10 000 requests in flight costs 10 000
//!   notification cells and **zero** additional threads. The socket
//!   front end is unix-only; the executors, the wire codec and
//!   [`GatewayClient`] build everywhere.
//!
//! # Wire protocol
//!
//! Every frame is `u32` big-endian payload length, then the payload
//! (capped at [`MAX_FRAME`] bytes). Integers are big-endian throughout.
//!
//! Request payload:
//!
//! ```text
//! u64 tag | u16 model | u8 ndim | ndim × u32 dims | prod(dims) × u8 image
//! ```
//!
//! Response payload (the `tag` echoes the request's, so clients may
//! pipeline arbitrarily many requests per connection and match
//! responses out of order). Version [`WIRE_VERSION`] (2) added the
//! per-request energy breakdown and the selected slicing-config index
//! to status-0 frames; [`decode_response`] rejects any other version
//! with a clean error instead of misreading the bytes:
//!
//! ```text
//! u64 tag | u8 version | u8 status
//!   status 0: u64 seq | u64 generation | u64 age | u32 predicted
//!             | u64 queue_ticks | u64 compute_ticks
//!             | u64 vectors | u64 macs | u32 config
//!             | 9 × f64 energy (breakdown components, pJ, IEEE-754 bits)
//!             | u32 out_len | out_len × u8 output
//!   status 1: u32 msg_len | msg_len × u8 utf-8 error message
//! ```
//!
//! Admission over the socket is fail-fast
//! ([`crate::server::Admission::Fail`]): a bounded queue
//! answers `QueueFull` as a status-1 frame instead of stalling the IO
//! thread — backpressure travels over the wire. Frame-cap violations
//! are answered, not ghosted: an inbound length prefix beyond
//! [`MAX_FRAME`] gets a status-1 frame before the connection closes,
//! and an outbound response that would not fit the cap is replaced by
//! a status-1 frame on a healthy connection. A connection whose
//! unsent responses pass [`WRITE_HIGH_WATER`] bytes is not read from
//! until its client has taken enough of them: a client that pipelines
//! without reading stalls its own sends, not the gateway's memory.
//!
//! # Determinism
//!
//! The gateway adds no execution semantics: every response's output
//! bytes are the served model's, bit-identical to submission-order
//! [`crate::model::CompiledModel::run_batch`] (pinned end-to-end by
//! `crates/core/tests/async_gateway.rs` and `examples/gateway.rs`).

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

use raella_energy::EnergyBreakdown;
use raella_nn::tensor::Tensor;

use crate::server::Response;
#[cfg(unix)]
use {
    crate::server::{join_or_resume, Admission, RaellaServer, RequestHandle},
    std::io::{PipeReader, PipeWriter},
    std::net::{SocketAddr, TcpListener},
    std::os::fd::AsRawFd,
    std::sync::atomic::{AtomicBool, Ordering},
    std::thread::JoinHandle,
};

/// Largest accepted frame payload (16 MiB) — a length prefix beyond this
/// is a protocol violation: the gateway answers a status-1 error frame
/// and then closes the connection (nothing after an unframeable prefix
/// can be trusted). The cap is symmetric: an outbound response that
/// would exceed it is replaced by a status-1 frame too.
pub const MAX_FRAME: usize = 1 << 24;

/// Response-frame wire version. Version 2 added the energy breakdown
/// and selected-config fields to status-0 frames; [`decode_response`]
/// rejects frames carrying any other version.
pub const WIRE_VERSION: u8 = 2;

/// Unsent response bytes past which a connection is not read from: its
/// requests stay in the kernel's socket buffers, and its client's
/// sends stall, until the client has read the backlog back below this
/// mark. Requests admitted before the mark was reached still complete,
/// so a backlog can overshoot it by their responses.
pub const WRITE_HIGH_WATER: usize = 1 << 20;

// ---------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------

/// Unparks a parked [`block_on`] caller.
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives one future to completion on the calling thread, parking
/// between polls — the minimal executor: no queue, no spawn, no
/// dependency beyond [`std::task`].
///
/// ```
/// use raella_core::gateway::block_on;
/// assert_eq!(block_on(async { 21 * 2 }), 42);
/// ```
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// The wake side of a [`LocalPool`]: task ids made runnable by wakers
/// (possibly from other threads — serving workers complete requests),
/// popped by the single polling thread.
struct ReadyQueue {
    ready: Mutex<VecDeque<u64>>,
    cv: Condvar,
}

impl ReadyQueue {
    fn push(&self, id: u64) {
        self.ready
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(id);
        self.cv.notify_one();
    }

    /// Blocks until some task is runnable.
    fn pop_blocking(&self) -> u64 {
        let mut ready = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(id) = ready.pop_front() {
                return id;
            }
            ready = self.cv.wait(ready).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Wakes one [`LocalPool`] task by id.
struct PoolWaker {
    id: u64,
    queue: Arc<ReadyQueue>,
}

impl Wake for PoolWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.id);
    }
}

/// A minimal single-threaded executor: spawn any number of futures,
/// then [`LocalPool::run`] polls them cooperatively until all complete.
/// Wakers are `Send + Sync`, so completions arriving from other threads
/// (serving workers finishing requests) unpark the pool — this is how
/// one OS thread holds 10 000 in-flight [`RequestHandle`] futures.
///
/// ```
/// use raella_core::gateway::LocalPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let done = Arc::new(AtomicUsize::new(0));
/// let mut pool = LocalPool::new();
/// for _ in 0..100 {
///     let done = Arc::clone(&done);
///     pool.spawn(async move {
///         done.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// pool.run();
/// assert_eq!(done.load(Ordering::SeqCst), 100);
/// ```
pub struct LocalPool {
    tasks: HashMap<u64, Pin<Box<dyn Future<Output = ()> + 'static>>>,
    queue: Arc<ReadyQueue>,
    next: u64,
}

impl Default for LocalPool {
    fn default() -> Self {
        LocalPool::new()
    }
}

impl LocalPool {
    /// An empty pool.
    pub fn new() -> Self {
        LocalPool {
            tasks: HashMap::new(),
            queue: Arc::new(ReadyQueue {
                ready: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            }),
            next: 0,
        }
    }

    /// Adds a future to the pool (runnable immediately). Futures only
    /// make progress inside [`LocalPool::run`].
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        let id = self.next;
        self.next += 1;
        self.tasks.insert(id, Box::pin(fut));
        self.queue.push(id);
    }

    /// Number of spawned futures that have not completed yet.
    pub fn pending(&self) -> usize {
        self.tasks.len()
    }

    /// Polls runnable tasks — parking while none are — until every
    /// spawned future has completed.
    pub fn run(&mut self) {
        while !self.tasks.is_empty() {
            let id = self.queue.pop_blocking();
            // Spurious wakes for completed tasks are legal; skip them.
            let Some(task) = self.tasks.get_mut(&id) else {
                continue;
            };
            let waker = Waker::from(Arc::new(PoolWaker {
                id,
                queue: Arc::clone(&self.queue),
            }));
            let mut cx = Context::from_waker(&waker);
            if task.as_mut().poll(&mut cx).is_ready() {
                self.tasks.remove(&id);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

/// A successfully served request as it appears on the wire: identity
/// (`seq`, `(generation, age, config)` for offline replay), the
/// prediction, the timing fields, a [`crate::engine::RunStats`]
/// summary, the priced [`EnergyBreakdown`], and the full output bytes
/// (so clients can assert bit-identity against a local
/// [`crate::model::CompiledModel::run_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireOk {
    /// Server-wide admission sequence number.
    pub seq: u64,
    /// Programming generation of the serving snapshot.
    pub generation: u64,
    /// Device age the request ran at.
    pub age: u64,
    /// Top-1 prediction (argmax of the output).
    pub predicted: u32,
    /// Queue wait, in µs ticks.
    pub queue_ticks: u64,
    /// Execution time, in µs ticks.
    pub compute_ticks: u64,
    /// Input vectors processed for this request.
    pub vectors: u64,
    /// MACs logically performed for this request.
    pub macs: u64,
    /// [`crate::server::energy_config_ladder`] index of the slicing
    /// variant that served the request (0 = base config).
    pub config: u32,
    /// Priced per-request energy breakdown
    /// ([`crate::server::Response::energy`]), bit-exact over the wire
    /// (components travel as IEEE-754 bit patterns).
    pub energy: EnergyBreakdown,
    /// The model's full output tensor bytes.
    pub output: Vec<u8>,
}

/// One decoded response frame: the echoed client tag plus either the
/// served result or the server's error message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The client-chosen correlation tag from the request frame.
    pub tag: u64,
    /// The served result, or the error message (`Err` mirrors a
    /// status-1 frame: admission rejection, unknown model, execution
    /// failure).
    pub result: Result<WireOk, String>,
}

/// Appends one length-prefixed request frame for `image` to `buf`.
pub fn encode_request(buf: &mut Vec<u8>, tag: u64, model: u16, image: &Tensor<u8>) {
    let dims = image.shape();
    let payload_len = 8 + 2 + 1 + 4 * dims.len() + image.as_slice().len();
    buf.extend_from_slice(&(payload_len as u32).to_be_bytes());
    buf.extend_from_slice(&tag.to_be_bytes());
    buf.extend_from_slice(&model.to_be_bytes());
    buf.push(dims.len() as u8);
    for &d in dims {
        buf.extend_from_slice(&(d as u32).to_be_bytes());
    }
    buf.extend_from_slice(image.as_slice());
}

/// Fixed status-0 payload bytes ahead of the output: tag + version +
/// status + seq/generation/age + predicted + queue/compute ticks +
/// vectors/macs + config + 9 energy components + out_len.
const OK_HEADER_LEN: usize = 8 + 1 + 1 + 8 * 7 + 4 + 4 + 8 * 9 + 4;

/// Appends one status-0 (served) response frame to `buf`. The cap is
/// enforced by the caller ([`encode_response`]): a response that would
/// not frame becomes a status-1 error instead.
fn encode_ok(buf: &mut Vec<u8>, tag: u64, resp: &Response) {
    let out = resp.output().as_slice();
    let payload_len = OK_HEADER_LEN + out.len();
    buf.extend_from_slice(&(payload_len as u32).to_be_bytes());
    buf.extend_from_slice(&tag.to_be_bytes());
    buf.push(WIRE_VERSION);
    buf.push(0);
    buf.extend_from_slice(&resp.sequence().to_be_bytes());
    buf.extend_from_slice(&resp.generation().to_be_bytes());
    buf.extend_from_slice(&resp.age().to_be_bytes());
    buf.extend_from_slice(&(resp.predicted() as u32).to_be_bytes());
    buf.extend_from_slice(&resp.queue_ticks().to_be_bytes());
    buf.extend_from_slice(&resp.compute_ticks().to_be_bytes());
    buf.extend_from_slice(&resp.stats().vectors.to_be_bytes());
    buf.extend_from_slice(&resp.stats().events.macs.to_be_bytes());
    buf.extend_from_slice(&(resp.selected_config() as u32).to_be_bytes());
    for component in resp.energy().values() {
        // IEEE-754 bit patterns: the breakdown survives the wire
        // bit-exactly, so client-side replay comparisons can be ==.
        buf.extend_from_slice(&component.to_bits().to_be_bytes());
    }
    buf.extend_from_slice(&(out.len() as u32).to_be_bytes());
    buf.extend_from_slice(out);
}

/// Appends the response frame for a served request, downgrading to a
/// status-1 frame when the output would push the payload past
/// [`MAX_FRAME`] — the cap is symmetric, and a too-large response must
/// not corrupt the stream or ghost the client.
fn encode_response(buf: &mut Vec<u8>, tag: u64, resp: &Response) {
    let out_len = resp.output().as_slice().len();
    if OK_HEADER_LEN + out_len > MAX_FRAME {
        encode_err(
            buf,
            tag,
            &format!(
                "response output of {out_len} bytes exceeds the \
                 {MAX_FRAME}-byte frame cap"
            ),
        );
    } else {
        encode_ok(buf, tag, resp);
    }
}

/// Appends one status-1 (error) response frame to `buf`.
fn encode_err(buf: &mut Vec<u8>, tag: u64, msg: &str) {
    let msg = msg.as_bytes();
    let payload_len = 8 + 1 + 1 + 4 + msg.len();
    buf.extend_from_slice(&(payload_len as u32).to_be_bytes());
    buf.extend_from_slice(&tag.to_be_bytes());
    buf.push(WIRE_VERSION);
    buf.push(1);
    buf.extend_from_slice(&(msg.len() as u32).to_be_bytes());
    buf.extend_from_slice(msg);
}

/// Splits the next complete frame off `buf`: returns
/// `Some((consumed, payload_range))` when a whole frame is buffered,
/// `None` when more bytes are needed.
///
/// # Errors
///
/// A length prefix beyond [`MAX_FRAME`] is a protocol violation.
#[allow(clippy::type_complexity)]
pub fn next_frame(buf: &[u8]) -> Result<Option<(usize, std::ops::Range<usize>)>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(format!(
            "frame of {len} bytes exceeds MAX_FRAME {MAX_FRAME}"
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((4 + len, 4..4 + len)))
}

/// A byte cursor over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "truncated frame: wanted {n} bytes at offset {}, payload is {}",
                self.pos,
                self.buf.len()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decodes one request payload into `(tag, model, image)`.
fn parse_request(payload: &[u8]) -> Result<(u64, u16, Tensor<u8>), String> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let tag = cur.u64()?;
    let model = cur.u16()?;
    let ndim = cur.u8()? as usize;
    let mut dims = Vec::with_capacity(ndim);
    let mut elems: usize = 1;
    for _ in 0..ndim {
        let d = cur.u32()? as usize;
        elems = elems
            .checked_mul(d)
            .filter(|&n| n <= MAX_FRAME)
            .ok_or_else(|| format!("image dims {dims:?}×{d} overflow the frame cap"))?;
        dims.push(d);
    }
    let data = cur.take(elems)?.to_vec();
    if cur.pos != payload.len() {
        return Err(format!(
            "trailing garbage: {} bytes after the image",
            payload.len() - cur.pos
        ));
    }
    let image = Tensor::from_vec(data, &dims).map_err(|e| e.to_string())?;
    Ok((tag, model, image))
}

/// Decodes one response payload (the client side of the protocol).
///
/// # Errors
///
/// Returns a message describing the malformed frame — including a frame
/// whose version byte is not [`WIRE_VERSION`], which is rejected before
/// any field is interpreted. A well-formed status-1 frame is **not** an
/// error here — it decodes to `WireResponse { result: Err(..) }`.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, String> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let tag = cur.u64()?;
    let version = cur.u8()?;
    if version != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {version} (this client speaks {WIRE_VERSION})"
        ));
    }
    let status = cur.u8()?;
    let result = match status {
        0 => {
            let seq = cur.u64()?;
            let generation = cur.u64()?;
            let age = cur.u64()?;
            let predicted = cur.u32()?;
            let queue_ticks = cur.u64()?;
            let compute_ticks = cur.u64()?;
            let vectors = cur.u64()?;
            let macs = cur.u64()?;
            let config = cur.u32()?;
            let mut components = [0.0f64; 9];
            for slot in &mut components {
                *slot = f64::from_bits(cur.u64()?);
            }
            let [adc_pj, crossbar_pj, dac_pj, sample_hold_pj, sram_pj, edram_pj, router_pj, digital_pj, quant_pj] =
                components;
            let energy = EnergyBreakdown {
                adc_pj,
                crossbar_pj,
                dac_pj,
                sample_hold_pj,
                sram_pj,
                edram_pj,
                router_pj,
                digital_pj,
                quant_pj,
            };
            let out_len = cur.u32()? as usize;
            let output = cur.take(out_len)?.to_vec();
            Ok(WireOk {
                seq,
                generation,
                age,
                predicted,
                queue_ticks,
                compute_ticks,
                vectors,
                macs,
                config,
                energy,
                output,
            })
        }
        1 => {
            let len = cur.u32()? as usize;
            let msg = cur.take(len)?.to_vec();
            Err(String::from_utf8_lossy(&msg).into_owned())
        }
        other => return Err(format!("unknown response status {other}")),
    };
    if cur.pos != payload.len() {
        return Err(format!(
            "trailing garbage: {} bytes after the response",
            payload.len() - cur.pos
        ));
    }
    Ok(WireResponse { tag, result })
}

// ---------------------------------------------------------------------
// The socket front end
// ---------------------------------------------------------------------

/// The `poll(2)` binding the IO threads wait in. `struct pollfd` and
/// the event bits below have the same layout and values on Linux,
/// Android, macOS and the BSDs; `nfds_t` differs in width.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::io;

    /// `nfds_t` is an `unsigned int` on Android, Apple targets and the
    /// BSDs…
    #[cfg(any(
        target_os = "android",
        target_vendor = "apple",
        target_os = "dragonfly",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
    ))]
    type NfdsT = std::ffi::c_uint;
    /// …and an `unsigned long` on Linux and the other unixes.
    #[cfg(not(any(
        target_os = "android",
        target_vendor = "apple",
        target_os = "dragonfly",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
    )))]
    type NfdsT = std::ffi::c_ulong;

    /// Data, or the end of the stream, to read.
    pub(super) const POLLIN: c_short = 0x1;
    /// Room to write.
    pub(super) const POLLOUT: c_short = 0x4;

    /// `struct pollfd`: one descriptor, the events waited for, and the
    /// events `poll` reports (errors and hang-ups are reported whatever
    /// `events` asks for).
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: c_short,
        pub(super) revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: c_int, events: c_short) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    /// Blocks, with no timeout, until at least one of `fds` is ready,
    /// and sets every entry's `revents`. An interrupting signal is
    /// retried.
    #[allow(unsafe_code)]
    pub(super) fn wait(fds: &mut [PollFd]) -> io::Result<()> {
        unsafe extern "C" {
            fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        }
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of
            // `#[repr(C)]` `struct pollfd`s that outlives the call, and
            // `poll` reads and writes only its first `nfds = fds.len()`
            // entries. A timeout of -1 blocks until one is ready.
            if unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, -1) } >= 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Per-IO-thread wake-up: `on_complete` hooks (fired from
/// serving-worker threads) post `(connection, slot)` to the mailbox, and
/// the first post since the IO thread last woke writes one byte to the
/// wake pipe its `poll` waits on.
#[cfg(unix)]
struct IoSignal {
    completed: Mutex<Vec<(u64, u64)>>,
    /// Set from the write of a wake byte until the IO thread has read
    /// it back, so at most one byte is ever pending and a write never
    /// blocks.
    woken: AtomicBool,
    wake_rx: PipeReader,
    wake_tx: PipeWriter,
}

#[cfg(unix)]
impl IoSignal {
    fn new() -> io::Result<Self> {
        let (wake_rx, wake_tx) = io::pipe()?;
        Ok(IoSignal {
            completed: Mutex::new(Vec::new()),
            woken: AtomicBool::new(false),
            wake_rx,
            wake_tx,
        })
    }

    fn post(&self, conn: u64, slot: u64) {
        self.completed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((conn, slot));
        self.wake();
    }

    /// Ends the IO thread's wait, unless a wake byte is already pending.
    fn wake(&self) {
        if !self.woken.swap(true, Ordering::SeqCst) {
            // The reader lives as long as this writer and never holds
            // more than this byte, so a failed write is a broken pipe
            // invariant; the IO thread would never see the wake, so
            // fail loudly instead.
            (&self.wake_tx)
                .write_all(&[1])
                .expect("gateway wake pipe takes its one pending byte");
        }
    }

    /// Reads back the pending wake byte (the wait reported the pipe
    /// readable) and re-arms [`IoSignal::wake`]. Called before
    /// [`IoSignal::drain`], so a completion posted after the drain
    /// writes a fresh byte and ends the next wait.
    fn rearm(&self) -> io::Result<()> {
        (&self.wake_rx).read_exact(&mut [0u8; 1])?;
        self.woken.store(false, Ordering::SeqCst);
        Ok(())
    }

    fn drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(
            &mut *self
                .completed
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// State shared by every IO thread.
#[cfg(unix)]
struct GatewayShared {
    listener: TcpListener,
    stop: AtomicBool,
    signals: Vec<Arc<IoSignal>>,
}

/// One client connection, owned by exactly one IO thread (no
/// cross-thread socket sharing, no per-connection locks).
#[cfg(unix)]
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    rbuf: Vec<u8>,
    /// Serialized response bytes not yet written, from `wpos`.
    wbuf: Vec<u8>,
    wpos: usize,
    /// In-flight requests: slot → (client tag, handle).
    in_flight: HashMap<u64, (u64, RequestHandle)>,
    next_slot: u64,
    /// Peer closed its write side (or read failed): parse no more
    /// requests, but drain in-flight responses before dropping.
    closing: bool,
    /// Unrecoverable (write failure / protocol violation): drop now.
    dead: bool,
}

#[cfg(unix)]
impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: HashMap::new(),
            next_slot: 0,
            closing: false,
            dead: false,
        }
    }

    /// Response bytes queued and not yet written.
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether to read more requests: not once the peer is gone, and not
    /// while the backlog is at [`WRITE_HIGH_WATER`].
    fn reading(&self) -> bool {
        !(self.closing || self.dead) && self.backlog() < WRITE_HIGH_WATER
    }

    /// The events this connection waits for. A connection with none
    /// stays out of the wait: `poll` reports a hang-up whatever was
    /// asked, so a half-closed connection still in flight would
    /// otherwise end every wait at once.
    fn interest(&self) -> std::ffi::c_short {
        let mut events = 0;
        if self.reading() {
            events |= sys::POLLIN;
        }
        if self.backlog() > 0 {
            events |= sys::POLLOUT;
        }
        events
    }

    /// Dead, or closing with every response flushed.
    fn finished(&self) -> bool {
        self.dead || self.closing && self.in_flight.is_empty() && self.backlog() == 0
    }
}

/// A TCP front end for a [`RaellaServer`]: accepts connections, decodes
/// length-prefixed request frames, submits them fail-fast, and writes
/// response frames as completions arrive — out of submission order when
/// batches finish out of order, matched by the echoed tag.
///
/// A fixed pool of [`GatewayBuilder::io_threads`] threads owns the
/// sockets (each accepted connection is pinned to one thread);
/// completions wake the owning thread through the handle's
/// [`RequestHandle::on_complete`] hook, so in-flight requests cost no
/// threads at all. The gateway borrows the server (`Arc`) and never
/// shuts it down — dropping the gateway stops the IO threads only.
///
/// ```no_run
/// use std::sync::Arc;
/// use raella_core::gateway::Gateway;
/// use raella_core::server::RaellaServer;
/// use raella_core::RaellaConfig;
/// use raella_nn::graph::Graph;
/// use raella_nn::synth::SynthLayer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new();
/// let input = g.input();
/// let c = g.conv(input, SynthLayer::conv(2, 4, 3, 1).build(), 2, 3, 1, 1)?;
/// let gap = g.global_avg_pool(c);
/// g.set_output(gap);
/// let server = Arc::new(
///     RaellaServer::builder()
///         .model(&g, &RaellaConfig::default())
///         .build()?,
/// );
/// let gateway = Gateway::builder(Arc::clone(&server))
///     .io_threads(2)
///     .bind("127.0.0.1:0")?;
/// println!("serving on {}", gateway.local_addr());
/// # gateway.shutdown();
/// # server.shutdown();
/// # Ok(())
/// # }
/// ```
#[cfg(unix)]
pub struct Gateway {
    server: Arc<RaellaServer>,
    shared: Arc<GatewayShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    addr: SocketAddr,
}

/// Configures a [`Gateway`] before binding.
#[cfg(unix)]
pub struct GatewayBuilder {
    server: Arc<RaellaServer>,
    io_threads: usize,
}

#[cfg(unix)]
impl GatewayBuilder {
    /// IO thread pool size (default 2, clamped to ≥ 1). Every accepted
    /// connection is pinned to one of these threads; the pool never
    /// grows with connection or request count.
    #[must_use]
    pub fn io_threads(mut self, n: usize) -> Self {
        self.io_threads = n.max(1);
        self
    }

    /// Binds the listener and starts the IO threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind, nonblocking setup, wake pipes).
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let signals = (0..self.io_threads)
            .map(|_| IoSignal::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let shared = Arc::new(GatewayShared {
            listener,
            stop: AtomicBool::new(false),
            signals,
        });
        let threads = (0..self.io_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let server = Arc::clone(&self.server);
                std::thread::spawn(move || io_loop(&server, &shared, i))
            })
            .collect();
        Ok(Gateway {
            server: self.server,
            shared,
            threads: Mutex::new(threads),
            addr,
        })
    }
}

#[cfg(unix)]
impl Gateway {
    /// Starts configuring a gateway over `server`.
    pub fn builder(server: Arc<RaellaServer>) -> GatewayBuilder {
        GatewayBuilder {
            server,
            io_threads: 2,
        }
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server this gateway fronts.
    pub fn server(&self) -> &Arc<RaellaServer> {
        &self.server
    }

    /// Stops accepting, drops every connection (in-flight requests keep
    /// executing on the server; their responses are discarded), and
    /// joins the IO threads. Idempotent; also runs on `Drop`. The
    /// underlying [`RaellaServer`] is left running.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for signal in &self.shared.signals {
            signal.wake();
        }
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in threads.drain(..) {
            join_or_resume(handle);
        }
    }
}

#[cfg(unix)]
impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One IO thread: wait → re-arm the wake → accept → drain completions
/// → pump the ready connections → reap them once finished. The one
/// blocking point is the `poll` in [`sys::wait`], with no timeout: a
/// socket ends it by becoming ready, and a completion or
/// [`Gateway::shutdown`] by a byte on the wake pipe. An idle thread
/// sleeps until there is work, and a busy one pumps only the
/// connections that have some.
#[cfg(unix)]
fn io_loop(server: &RaellaServer, shared: &GatewayShared, index: usize) {
    let signal = &shared.signals[index];
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 0;
    let mut tmp = [0u8; 16 * 1024];
    // The wait set is the wake pipe, the listener, then one entry per
    // connection with interest, whose ids `waiting` holds in order.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut waiting: Vec<u64> = Vec::new();
    let mut ready: Vec<u64> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        fds.clear();
        waiting.clear();
        fds.push(sys::PollFd::new(signal.wake_rx.as_raw_fd(), sys::POLLIN));
        fds.push(sys::PollFd::new(shared.listener.as_raw_fd(), sys::POLLIN));
        for (&conn_id, conn) in &conns {
            let events = conn.interest();
            if events != 0 {
                fds.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
                waiting.push(conn_id);
            }
        }
        sys::wait(&mut fds).expect("poll(2) over live descriptors succeeds");
        if fds[0].revents != 0 {
            signal
                .rearm()
                .expect("gateway wake pipe holds the byte poll reported");
        }
        ready.clear();
        ready.extend(
            fds[2..]
                .iter()
                .zip(&waiting)
                .filter(|(fd, _)| fd.revents != 0)
                .map(|(_, &conn_id)| conn_id),
        );

        // Accept: the listener is shared — whichever thread wins the
        // race owns the connection for its whole life.
        if fds[1].revents != 0 {
            loop {
                match shared.listener.accept() {
                    Ok((stream, _)) => {
                        // A socket that cannot be made nonblocking and
                        // unbuffered is closed, not served.
                        if stream.set_nonblocking(true).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        conns.insert(next_conn, Conn::new(stream));
                        ready.push(next_conn);
                        next_conn += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // WouldBlock: another thread won, or none is left.
                    Err(_) => break,
                }
            }
        }

        // Completions: fetch each finished request's result and queue
        // its response frame on the owning connection.
        for (conn_id, slot) in signal.drain() {
            // The connection may have died first — the result is simply
            // discarded (the cell was already consumed or drops with
            // the handle).
            let Some(conn) = conns.get_mut(&conn_id) else {
                continue;
            };
            let Some((tag, mut handle)) = conn.in_flight.remove(&slot) else {
                continue;
            };
            match handle.try_wait() {
                Some(Ok(resp)) => encode_response(&mut conn.wbuf, tag, &resp),
                Some(Err(err)) => encode_err(&mut conn.wbuf, tag, &err.to_string()),
                // Unreachable — on_complete fires after the result is
                // stored — but degrade to an error frame, not a panic.
                None => encode_err(&mut conn.wbuf, tag, "response unavailable"),
            }
            ready.push(conn_id);
        }

        // Pump each ready connection once: read + parse + submit, then
        // flush writes; reap it if that finished it.
        ready.sort_unstable();
        ready.dedup();
        for &conn_id in &ready {
            let Some(conn) = conns.get_mut(&conn_id) else {
                continue;
            };
            pump_reads(server, signal, conn_id, conn, &mut tmp);
            pump_writes(conn);
            if conn.finished() {
                conns.remove(&conn_id);
            }
        }
    }
}

/// Reads whatever the socket has, parses complete frames, and submits
/// them — unless the connection is not [`Conn::reading`].
#[cfg(unix)]
fn pump_reads(
    server: &RaellaServer,
    signal: &Arc<IoSignal>,
    conn_id: u64,
    conn: &mut Conn,
    tmp: &mut [u8],
) {
    if !conn.reading() {
        return;
    }
    loop {
        match conn.stream.read(tmp) {
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closing = true;
                break;
            }
        }
    }
    let mut consumed = 0;
    loop {
        match next_frame(&conn.rbuf[consumed..]) {
            Ok(Some((used, payload))) => {
                let payload = &conn.rbuf[consumed + payload.start..consumed + payload.end];
                match parse_request(payload) {
                    Ok((tag, model, image)) => {
                        match server.submit(model as usize, image, Admission::Fail) {
                            Ok(handle) => {
                                let slot = conn.next_slot;
                                conn.next_slot += 1;
                                let signal = Arc::clone(signal);
                                handle.on_complete(move || signal.post(conn_id, slot));
                                conn.in_flight.insert(slot, (tag, handle));
                            }
                            // Admission rejection (QueueFull, shutdown,
                            // unknown model) → error frame: backpressure
                            // over the wire, the IO thread never parks.
                            Err(err) => encode_err(&mut conn.wbuf, tag, &err.to_string()),
                        }
                    }
                    Err(msg) => {
                        // The tag may not have parsed — echo 0.
                        let tag = payload
                            .get(..8)
                            .map(|b| u64::from_be_bytes(b.try_into().unwrap()))
                            .unwrap_or(0);
                        encode_err(&mut conn.wbuf, tag, &format!("bad request: {msg}"));
                    }
                }
                consumed += used;
            }
            Ok(None) => break,
            Err(msg) => {
                // Unframeable stream: nothing trustworthy follows, but
                // the client deserves to know *why* the connection is
                // going away — answer a status-1 frame, flush it, then
                // close (`closing` drains the write buffer; `dead`
                // would drop the explanation on the floor).
                let tag = conn.rbuf[consumed..]
                    .get(4..12)
                    .map(|b| u64::from_be_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                encode_err(&mut conn.wbuf, tag, &format!("protocol violation: {msg}"));
                // Discard the poisoned bytes so the reaper's "drained"
                // check is about responses, not this garbage.
                conn.rbuf.clear();
                consumed = 0;
                conn.closing = true;
                break;
            }
        }
    }
    conn.rbuf.drain(..consumed);
}

/// Flushes pending response bytes.
#[cfg(unix)]
fn pump_writes(conn: &mut Conn) {
    if conn.dead {
        return;
    }
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > 64 * 1024 {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
}

/// A minimal blocking client for the gateway protocol — one frame out,
/// frames in as they arrive. Suitable for tests and simple tools; load
/// generators wanting thousands of requests in flight should pipeline
/// over nonblocking sockets with [`encode_request`] / [`next_frame`] /
/// [`decode_response`] directly (see `examples/gateway.rs`).
pub struct GatewayClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl GatewayClient {
    /// Connects (blocking socket, Nagle off).
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-option errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(GatewayClient {
            stream,
            rbuf: Vec::new(),
        })
    }

    /// Sends one request frame (blocking write).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, tag: u64, model: u16, image: &Tensor<u8>) -> io::Result<()> {
        let mut buf = Vec::new();
        encode_request(&mut buf, tag, model, image);
        self.stream.write_all(&buf)
    }

    /// Blocks until the next response frame arrives and decodes it.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`io::ErrorKind::InvalidData`] for a malformed
    /// frame.
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        let mut tmp = [0u8; 4096];
        loop {
            match next_frame(&self.rbuf)
                .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))?
            {
                Some((used, payload)) => {
                    let resp = decode_response(&self.rbuf[payload])
                        .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))?;
                    self.rbuf.drain(..used);
                    return Ok(resp);
                }
                None => {
                    let n = self.stream.read(&mut tmp)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "gateway closed the connection mid-frame",
                        ));
                    }
                    self.rbuf.extend_from_slice(&tmp[..n]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::SharedCompileCache;
    use crate::config::RaellaConfig;
    use raella_nn::graph::Graph;
    use raella_nn::synth::SynthLayer;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let input = g.input();
        let gap = g.global_avg_pool(input);
        let fc = g.linear(gap, SynthLayer::linear(2, 3, 7).build());
        g.set_output(fc);
        g
    }

    fn tiny_cfg() -> RaellaConfig {
        RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            search_vectors: 2,
            ..RaellaConfig::default()
        }
    }

    fn tiny_image(seed: u8) -> Tensor<u8> {
        Tensor::from_vec(vec![seed, seed.wrapping_mul(31)], &[2, 1, 1]).unwrap()
    }

    fn tiny_server() -> Arc<RaellaServer> {
        Arc::new(
            RaellaServer::builder()
                .model(&tiny_graph(), &tiny_cfg())
                .compile_cache(SharedCompileCache::new())
                .workers(1)
                .max_batch(4)
                .latency_budget_ticks(0)
                .build()
                .expect("tiny server builds"),
        )
    }

    #[test]
    fn frames_round_trip() {
        let image = tiny_image(9);
        let mut buf = Vec::new();
        encode_request(&mut buf, 0xDEAD_BEEF, 3, &image);
        let (used, payload) = next_frame(&buf).unwrap().expect("one whole frame");
        assert_eq!(used, buf.len());
        let (tag, model, decoded) = parse_request(&buf[payload]).unwrap();
        assert_eq!(tag, 0xDEAD_BEEF);
        assert_eq!(model, 3);
        assert_eq!(&decoded, &image);

        // A split frame is not a frame yet.
        assert!(next_frame(&buf[..buf.len() - 1]).unwrap().is_none());
        assert!(next_frame(&buf[..3]).unwrap().is_none());

        // An oversized length prefix is a protocol violation.
        let bad = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        assert!(next_frame(&bad).is_err());

        // Error frames round-trip too.
        let mut buf = Vec::new();
        encode_err(&mut buf, 7, "queue full");
        let (_, payload) = next_frame(&buf).unwrap().unwrap();
        let resp = decode_response(&buf[payload]).unwrap();
        assert_eq!(resp.tag, 7);
        assert_eq!(resp.result.unwrap_err(), "queue full");
    }

    #[test]
    fn decoder_rejects_unknown_wire_versions() {
        let mut buf = Vec::new();
        encode_err(&mut buf, 3, "x");
        let (_, payload) = next_frame(&buf).unwrap().unwrap();
        let mut frame = buf[payload].to_vec();
        // A v1 frame put the status byte where the version now lives;
        // both legacy statuses must be rejected by name, as must any
        // future version.
        for bogus in [0u8, 1, WIRE_VERSION + 1] {
            frame[8] = bogus;
            let err = decode_response(&frame).unwrap_err();
            assert!(
                err.contains(&format!("unsupported wire version {bogus}")),
                "version {bogus}: {err}"
            );
        }
        frame[8] = WIRE_VERSION;
        assert!(decode_response(&frame).is_ok(), "restored frame decodes");
    }

    #[test]
    fn parse_request_rejects_garbage() {
        assert!(parse_request(&[1, 2, 3]).is_err(), "truncated header");
        // Valid header claiming more image bytes than present.
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, 0, &tiny_image(1));
        let (_, payload) = next_frame(&buf).unwrap().unwrap();
        let short = &buf[payload.start..payload.end - 1];
        assert!(parse_request(short).is_err(), "short image");
        // Trailing garbage after a complete image.
        let mut long = buf[payload].to_vec();
        long.push(0);
        assert!(parse_request(&long).is_err(), "trailing garbage");
    }

    #[test]
    fn block_on_drives_cross_thread_wakes() {
        // A future that parks until another thread wakes it.
        struct Handoff {
            state: Arc<Mutex<(bool, Option<Waker>)>>,
        }
        impl Future for Handoff {
            type Output = u32;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                let mut state = self.state.lock().unwrap();
                if state.0 {
                    Poll::Ready(99)
                } else {
                    state.1 = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let state = Arc::new(Mutex::new((false, None::<Waker>)));
        let thread_state = Arc::clone(&state);
        let setter = std::thread::spawn(move || {
            // Wait until the main thread has parked with a registered
            // waker, then flip and wake.
            loop {
                let mut s = thread_state.lock().unwrap();
                if let Some(waker) = s.1.take() {
                    s.0 = true;
                    drop(s);
                    waker.wake();
                    return;
                }
                drop(s);
                std::thread::yield_now();
            }
        });
        assert_eq!(block_on(Handoff { state }), 99);
        setter.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn gateway_serves_round_trips_and_error_frames() {
        let server = tiny_server();
        let gateway = Gateway::builder(Arc::clone(&server))
            .io_threads(2)
            .bind("127.0.0.1:0")
            .expect("gateway binds");
        let mut client = GatewayClient::connect(gateway.local_addr()).expect("client connects");

        // Three pipelined requests: two valid, one for a model that
        // does not exist, plus one misshaped image.
        let images = [tiny_image(1), tiny_image(2)];
        client.send(10, 0, &images[0]).unwrap();
        client.send(11, 0, &images[1]).unwrap();
        client.send(12, 9, &images[0]).unwrap();
        client.send(13, 0, &Tensor::zeros(&[7, 7, 7])).unwrap();

        let mut got = HashMap::new();
        for _ in 0..4 {
            let resp = client.recv().expect("response frame");
            got.insert(resp.tag, resp.result);
        }
        let model = server.model(0);
        for (tag, image) in [(10u64, &images[0]), (11, &images[1])] {
            let (want, stats) = model.run_image(image).unwrap();
            let ok = got[&tag].as_ref().expect("served ok");
            assert_eq!(ok.output, want.as_slice(), "tag {tag} bytes");
            assert_eq!(
                ok.predicted as usize,
                raella_nn::graph::argmax(want.as_slice())
            );
            assert_eq!(ok.vectors, stats.vectors);
            assert_eq!(ok.generation, 0);
            // Energy crosses the wire bit-exactly (IEEE-754 bit
            // patterns), so an offline replay compares with ==.
            assert_eq!(ok.config, 0, "no budget registered");
            assert_eq!(ok.energy, model.energy_breakdown(&stats), "tag {tag}");
            assert!(ok.energy.total_pj() > 0.0);
        }
        assert!(
            got[&12].as_ref().unwrap_err().contains("no model 9"),
            "unknown model must answer an error frame: {:?}",
            got[&12]
        );
        assert!(
            got[&13].is_err(),
            "misshaped image must answer an error frame"
        );

        gateway.shutdown();
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn oversized_frame_answers_an_error_before_closing() {
        let server = tiny_server();
        let gateway = Gateway::builder(Arc::clone(&server))
            .io_threads(1)
            .bind("127.0.0.1:0")
            .expect("gateway binds");
        let mut stream = TcpStream::connect(gateway.local_addr()).expect("connects");
        // A frame claiming MAX_FRAME + 1 payload bytes, with the tag in
        // place so the error frame can echo it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        buf.extend_from_slice(&0xFEEDu64.to_be_bytes());
        stream.write_all(&buf).expect("writes");

        // The violation must be *answered*, not silently dropped: one
        // status-1 frame naming the cap, then EOF.
        let mut rbuf = Vec::new();
        let mut tmp = [0u8; 4096];
        let frame = loop {
            if let Some((used, payload)) = next_frame(&rbuf).expect("well-formed error frame") {
                let resp = decode_response(&rbuf[payload]).expect("decodable");
                rbuf.drain(..used);
                break resp;
            }
            let n = stream.read(&mut tmp).expect("readable");
            assert!(n > 0, "connection closed without an error frame");
            rbuf.extend_from_slice(&tmp[..n]);
        };
        assert_eq!(frame.tag, 0xFEED, "error echoes the violating tag");
        let msg = frame.result.unwrap_err();
        assert!(msg.contains("protocol violation"), "{msg}");

        // …and then the gateway hangs up.
        loop {
            match stream.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => rbuf.extend_from_slice(&tmp[..n]),
                Err(e) => panic!("expected EOF after the error frame: {e}"),
            }
        }
        assert!(rbuf.is_empty(), "nothing follows the error frame");
        gateway.shutdown();
        server.shutdown();
    }
}
