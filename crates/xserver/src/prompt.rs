//! Unforgeable permission prompts (the §IV-A alternative policy).
//!
//! The paper deliberately ships *passive alerts*, but notes: "we have
//! implemented and verified that OVERHAUL's security primitives can be
//! used to support such a [prompt-based] security model in a trivial
//! manner, where the trusted output path would be used for displaying an
//! unforgeable prompt, and the trusted input path to verify user
//! interaction with it." This module is that implementation:
//!
//! * prompts render on the overlay layer (with the visual shared secret),
//!   so no client can draw a convincing fake or obscure a real one;
//! * the answer arrives as a *hardware* input event routed to the overlay
//!   before ordinary dispatch, so no client can answer programmatically
//!   (`SendEvent`/XTest events never reach the prompt surface).

use std::fmt;

use overhaul_sim::Timestamp;

/// Identifier of a prompt instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PromptId(u64);

impl PromptId {
    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PromptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prompt:{}", self.0)
    }
}

/// Lifecycle of a prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptState {
    /// Waiting for the user.
    Pending,
    /// The user allowed the access.
    Approved,
    /// The user denied the access (or it timed out).
    Denied,
}

/// One permission prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prompt {
    /// Prompt id.
    pub id: PromptId,
    /// Requesting process name.
    pub process: String,
    /// The operation being requested (paper notation: `mic`, `cam`, ...).
    pub op: String,
    /// When the prompt appeared.
    pub asked_at: Timestamp,
    /// Current state.
    pub state: PromptState,
    /// The visual shared secret embedded in the rendering.
    pub secret: String,
}

impl Prompt {
    /// The on-screen text of the prompt.
    pub fn render(&self) -> String {
        format!(
            "[{}] Allow {} to access the {}? (hardware Y/N)",
            self.secret, self.process, self.op
        )
    }
}

/// The overlay prompt surface. At most one prompt is pending at a time
/// (queued requests would be answered one by one in a real system; the
/// harness never needs more than one in flight).
/// ```
/// use overhaul_sim::Timestamp;
/// use overhaul_xserver::prompt::{PromptState, PromptSurface};
///
/// let mut prompts = PromptSurface::default();
/// prompts.ask("skype", "cam", Timestamp::from_millis(1), "cat.png").unwrap();
/// let resolved = prompts.answer(true).unwrap();
/// assert_eq!(resolved.state, PromptState::Approved);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PromptSurface {
    next: u64,
    pending: Option<Prompt>,
    history: Vec<Prompt>,
}

impl PromptSurface {
    /// Displays a prompt rendered with the user's shared `secret`. Returns
    /// `None` if another prompt is already pending (the caller should treat
    /// that as a deny and retry later).
    pub fn ask(
        &mut self,
        process: impl Into<String>,
        op: impl Into<String>,
        now: Timestamp,
        secret: &str,
    ) -> Option<PromptId> {
        if self.pending.is_some() {
            return None;
        }
        self.next += 1;
        let id = PromptId(self.next);
        self.pending = Some(Prompt {
            id,
            process: process.into(),
            op: op.into(),
            asked_at: now,
            state: PromptState::Pending,
            secret: secret.to_string(),
        });
        Some(id)
    }

    /// The prompt currently awaiting an answer.
    pub fn pending(&self) -> Option<&Prompt> {
        self.pending.as_ref()
    }

    /// Resolves the pending prompt with a *hardware-verified* user answer.
    /// Returns the resolved prompt, or `None` if nothing was pending.
    pub fn answer(&mut self, approve: bool) -> Option<Prompt> {
        let mut prompt = self.pending.take()?;
        prompt.state = if approve {
            PromptState::Approved
        } else {
            PromptState::Denied
        };
        self.history.push(prompt.clone());
        Some(prompt)
    }

    /// Every resolved prompt, oldest first.
    pub fn history(&self) -> &[Prompt] {
        &self.history
    }

    /// Number of prompts ever asked (resolved + pending).
    pub fn asked_count(&self) -> usize {
        self.history.len() + usize::from(self.pending.is_some())
    }
}

mod pack {
    //! Snapshot codec for the overlay prompt surface.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{Prompt, PromptId, PromptState, PromptSurface};

    impl_pack_newtype!(PromptId, u64);

    impl Pack for PromptState {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                PromptState::Pending => 0,
                PromptState::Approved => 1,
                PromptState::Denied => 2,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => PromptState::Pending,
                1 => PromptState::Approved,
                2 => PromptState::Denied,
                _ => return Err(SnapshotError::BadValue("prompt state")),
            })
        }
    }

    impl_pack!(Prompt {
        id,
        process,
        op,
        asked_at,
        state,
        secret
    });
    impl_pack!(PromptSurface {
        next,
        pending,
        history
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface() -> PromptSurface {
        PromptSurface::default()
    }

    #[test]
    fn ask_answer_round_trip() {
        let mut s = surface();
        let id = s
            .ask("skype", "cam", Timestamp::from_millis(5), "cat.png")
            .unwrap();
        assert_eq!(s.pending().unwrap().id, id);
        let resolved = s.answer(true).unwrap();
        assert_eq!(resolved.state, PromptState::Approved);
        assert!(s.pending().is_none());
        assert_eq!(s.history().len(), 1);
    }

    #[test]
    fn deny_answer() {
        let mut s = surface();
        s.ask("spy", "mic", Timestamp::ZERO, "cat.png").unwrap();
        assert_eq!(s.answer(false).unwrap().state, PromptState::Denied);
    }

    #[test]
    fn only_one_prompt_pending() {
        let mut s = surface();
        s.ask("a", "cam", Timestamp::ZERO, "cat.png").unwrap();
        assert_eq!(s.ask("b", "mic", Timestamp::ZERO, "cat.png"), None);
        s.answer(true);
        assert!(s.ask("b", "mic", Timestamp::ZERO, "cat.png").is_some());
    }

    #[test]
    fn answer_without_prompt_is_none() {
        let mut s = surface();
        assert_eq!(s.answer(true), None);
    }

    #[test]
    fn rendering_embeds_secret() {
        let mut s = surface();
        s.ask("skype", "cam", Timestamp::ZERO, "cat.png").unwrap();
        let text = s.pending().unwrap().render();
        assert!(text.starts_with("[cat.png]"));
        assert!(text.contains("skype"));
        assert!(text.contains("cam"));
    }

    #[test]
    fn asked_count_tracks_pending_and_history() {
        let mut s = surface();
        s.ask("a", "cam", Timestamp::ZERO, "cat.png").unwrap();
        assert_eq!(s.asked_count(), 1);
        s.answer(false);
        s.ask("b", "mic", Timestamp::ZERO, "cat.png").unwrap();
        assert_eq!(s.asked_count(), 2);
    }
}
