//! A faulty external-action sink for tests and benches — test code, not
//! product. A sink reports failure by returning `Err`; this one does so on a
//! seeded schedule per kind, can stall before every call, counts each kind's
//! calls and failures, and can be healed mid-test. A call that does not fail
//! is forwarded to the recording sink behind it, so `Sqlcm::outbox()` and
//! `Sqlcm::command_log()` still see what was sent.
//!
//! Included as `mod faulty_sink;` by `crates/core/tests/*` and by `#[path]`
//! from the root package's `tests/chaos.rs` and `tests/telemetry_export.rs`
//! and `sqlcm-bench`'s `t8_overload` bench.
//!
//! `Prob` rates draw from one seeded `SmallRng` shared by both kinds, so a
//! seed fixes the schedule of a given call sequence; `EveryNth` rates count
//! each kind's own calls.

#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlcm_common::{Error, Result};
use sqlcm_core::sinks::{CommandSink, MailSink, RecordingCommandSink, RecordingMailSink};
use sqlcm_core::{MonitorConfig, Sqlcm};

/// How often a call of one kind fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultRate {
    /// Never fail.
    Never,
    /// Every call fails.
    Always,
    /// Each call fails independently with this probability, drawn from the
    /// sink's seeded RNG.
    Prob(f64),
    /// Every `n`-th call fails (1-based: `EveryNth(3)` fails calls 3, 6, 9,
    /// …). `EveryNth(0)` never fails.
    EveryNth(u64),
}

/// Which of the two sinks a call reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mail = 0,
    Command = 1,
}

pub struct FaultySink {
    rates: [FaultRate; 2],
    stall: Duration,
    rng: Mutex<SmallRng>,
    healed: AtomicBool,
    attempts: [AtomicU64; 2],
    failures: [AtomicU64; 2],
    outbox: Arc<RecordingMailSink>,
    command_log: Arc<RecordingCommandSink>,
}

impl FaultySink {
    /// A sink that fails nothing yet, in front of fresh recording sinks.
    pub fn seeded(seed: u64) -> FaultySink {
        FaultySink {
            rates: [FaultRate::Never; 2],
            stall: Duration::ZERO,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            healed: AtomicBool::new(false),
            attempts: Default::default(),
            failures: Default::default(),
            outbox: Arc::default(),
            command_log: Arc::default(),
        }
    }

    pub fn mail(mut self, rate: FaultRate) -> FaultySink {
        self.rates[Kind::Mail as usize] = rate;
        self
    }

    pub fn command(mut self, rate: FaultRate) -> FaultySink {
        self.rates[Kind::Command as usize] = rate;
        self
    }

    /// One rate for both kinds.
    pub fn all(self, rate: FaultRate) -> FaultySink {
        self.mail(rate).command(rate)
    }

    /// Sleep this long before every call, failed or not.
    pub fn stall_micros(mut self, micros: u64) -> FaultySink {
        self.stall = Duration::from_micros(micros);
        self
    }

    /// Put the sink in front of `sqlcm`'s recording outbox and command log,
    /// and make it both of `sqlcm`'s sinks.
    pub fn install(mut self, sqlcm: &Sqlcm) -> Arc<FaultySink> {
        self.outbox = sqlcm.outbox();
        self.command_log = sqlcm.command_log();
        let sink = Arc::new(self);
        sqlcm.configure(MonitorConfig {
            mail_sink: sink.clone(),
            command_sink: sink.clone(),
            ..sqlcm.config()
        });
        sink
    }

    /// Heal the sink (`true`) or break it again (`false`). A healed sink
    /// forwards every call at once; its calls still count as attempts.
    pub fn set_healed(&self, healed: bool) {
        self.healed.store(healed, Ordering::Relaxed);
    }

    /// Calls of `kind` so far, failed or not.
    pub fn attempts(&self, kind: Kind) -> u64 {
        self.attempts[kind as usize].load(Ordering::Relaxed)
    }

    /// Calls of `kind` that returned `Err`.
    pub fn failures(&self, kind: Kind) -> u64 {
        self.failures[kind as usize].load(Ordering::Relaxed)
    }

    /// Count one call of `kind` and decide whether it fails.
    fn call(&self, kind: Kind) -> Result<()> {
        let i = kind as usize;
        let attempt = self.attempts[i].fetch_add(1, Ordering::Relaxed) + 1;
        if self.healed.load(Ordering::Relaxed) {
            return Ok(());
        }
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        let fail = match self.rates[i] {
            FaultRate::Never => false,
            FaultRate::Always => true,
            FaultRate::Prob(p) => p >= 1.0 || (p > 0.0 && self.rng.lock().unwrap().gen_bool(p)),
            FaultRate::EveryNth(n) => n != 0 && attempt.is_multiple_of(n),
        };
        if !fail {
            return Ok(());
        }
        self.failures[i].fetch_add(1, Ordering::Relaxed);
        Err(Error::Monitor(format!("{kind:?} sink is down")))
    }
}

impl MailSink for FaultySink {
    fn send(&self, to: &str, body: &str) -> Result<()> {
        self.call(Kind::Mail)?;
        self.outbox.send(to, body)
    }
}

impl CommandSink for FaultySink {
    fn run(&self, command: &str) -> Result<()> {
        self.call(Kind::Command)?;
        self.command_log.run(command)
    }
}
