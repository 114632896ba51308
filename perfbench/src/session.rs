//! An in-process `youtiao serve` session driven as one closed-loop
//! client: one connection, one frame outstanding at a time.
//!
//! The daemon runs on its own thread over a channel-backed reader and
//! writer, exactly as the CLI runs it over stdin and stdout.

use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use youtiao::flow::ReportSummary;
use youtiao::serve::{
    run_daemon, run_design_daemon, BatchError, DaemonOptions, DaemonReport, DesignRequest, Executor,
};

/// The daemon's input: frames arrive over a channel; a closed channel
/// is end of input.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The daemon's output: completed lines go back over a channel.
struct LineSink {
    tx: Sender<String>,
    pending: Vec<u8>,
}

impl Write for LineSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            self.tx
                .send(text)
                .map_err(|_| std::io::Error::other("benchmark client hung up"))?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A running daemon session and its client end.
pub struct Session {
    tx: Option<Sender<Vec<u8>>>,
    rx: Receiver<String>,
    handle: Option<JoinHandle<Result<DaemonReport, BatchError>>>,
}

impl Session {
    /// Starts a session with default daemon options: the facade's
    /// `run_design_daemon` when `executor` is `None` (what `youtiao
    /// serve` runs), otherwise `run_daemon` over the given executor.
    pub fn start(executor: Option<Executor<DesignRequest, ReportSummary>>) -> Session {
        let (frame_tx, frame_rx) = mpsc::channel::<Vec<u8>>();
        let (line_tx, line_rx) = mpsc::channel::<String>();
        let handle = std::thread::spawn(move || {
            let options = DaemonOptions::default();
            let input = ChannelReader {
                rx: frame_rx,
                buf: Vec::new(),
                pos: 0,
            };
            let mut output = LineSink {
                tx: line_tx,
                pending: Vec::new(),
            };
            match executor {
                None => run_design_daemon(&options, input, &mut output),
                Some(executor) => run_daemon(executor, &options, input, &mut output),
            }
        });
        Session {
            tx: Some(frame_tx),
            rx: line_rx,
            handle: Some(handle),
        }
    }

    /// Sends one frame and waits for its response line. Returns the
    /// response and the time from send to receipt.
    pub fn call(&mut self, frame: &str) -> (String, Duration) {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        let started = Instant::now();
        self.tx
            .as_ref()
            .expect("session input is open until finish")
            .send(bytes)
            .expect("daemon thread alive");
        let line = self.rx.recv().expect("daemon answers every frame");
        (line, started.elapsed())
    }

    /// Ends input, waits for the daemon to drain, and returns its report.
    pub fn finish(mut self) -> DaemonReport {
        self.close().expect("daemon session ends cleanly")
    }

    fn close(&mut self) -> Result<DaemonReport, String> {
        drop(self.tx.take());
        let handle = self.handle.take().ok_or("session already closed")?;
        match handle.join() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.close();
        }
    }
}
