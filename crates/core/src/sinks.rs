//! Pluggable sinks for the `SendMail` and `RunExternal` actions (§5.3).
//!
//! The paper's prototype sends real mail and launches real programs. In this
//! reproduction the default sinks *record* what would have been sent/run — the
//! experiments only need the action dispatched and its cost charged, and tests
//! need determinism. [`SpawningCommandSink`] optionally launches processes for
//! real.
//!
//! A sink reports failure by returning `Err`, and the monitor contains it:
//! the error never reaches the engine thread. On the synchronous path an
//! `Err` is the firing rule's action error — counted in `action_errors`,
//! kept as `last_error`, and fed to the rule's circuit breaker. With async
//! actions on, the deferred pump counts it the same way and retries the
//! action with backoff; once its retries run out the action goes to the
//! loss ledger.

use parking_lot::Mutex;
use sqlcm_common::Result;

/// Receives `SendMail(Text, Address)` actions. An `Err` fails the action
/// (see the module docs for what the monitor does with it).
pub trait MailSink: Send + Sync {
    fn send(&self, to: &str, body: &str) -> Result<()>;
}

/// Receives `RunExternal(Command)` actions. An `Err` fails the action, as
/// for [`MailSink`].
pub trait CommandSink: Send + Sync {
    fn run(&self, command: &str) -> Result<()>;
}

/// Default mail sink: an in-memory outbox.
#[derive(Default)]
pub struct RecordingMailSink {
    outbox: Mutex<Vec<(String, String)>>,
}

impl RecordingMailSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// All (address, body) pairs sent so far.
    pub fn messages(&self) -> Vec<(String, String)> {
        self.outbox.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.outbox.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MailSink for RecordingMailSink {
    fn send(&self, to: &str, body: &str) -> Result<()> {
        self.outbox.lock().push((to.to_string(), body.to_string()));
        Ok(())
    }
}

/// Default command sink: an in-memory command log.
#[derive(Default)]
pub struct RecordingCommandSink {
    log: Mutex<Vec<String>>,
}

impl RecordingCommandSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn commands(&self) -> Vec<String> {
        self.log.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CommandSink for RecordingCommandSink {
    fn run(&self, command: &str) -> Result<()> {
        self.log.lock().push(command.to_string());
        Ok(())
    }
}

/// Command sink that actually spawns `sh -c <command>`, detached. A failed
/// spawn is returned as the action's error.
pub struct SpawningCommandSink;

impl CommandSink for SpawningCommandSink {
    fn run(&self, command: &str) -> Result<()> {
        std::process::Command::new("sh")
            .arg("-c")
            .arg(command)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_mail() {
        let m = RecordingMailSink::new();
        assert!(m.is_empty());
        m.send("dba@example.org", "slow query!").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.messages(),
            vec![("dba@example.org".to_string(), "slow query!".to_string())]
        );
    }

    #[test]
    fn recording_commands() {
        let c = RecordingCommandSink::new();
        c.run("analyze.sh outliers").unwrap();
        assert_eq!(c.commands(), vec!["analyze.sh outliers"]);
    }
}
