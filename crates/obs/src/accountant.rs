//! The runtime memory accountant: folds alloc/free/reuse/transient events
//! into an observed peak footprint and per-buffer live intervals.
//!
//! ## Tick timeline
//!
//! Every memory event consumes one **tick**, so the fold induces a logical
//! timeline in which a buffer allocated at tick `a` and freed at tick `f`
//! is live over the closed interval `[a, f - 1]` and a transient occupies
//! exactly its own tick. Peak candidates occur only at alloc/transient
//! ticks (frees can only lower the live sum), so the running peak computed
//! here equals `gist-memory`'s `peak_dynamic` over the extracted intervals
//! — that equality is the bridge the planner cross-check walks, and
//! `gist-memory`'s `check_no_overlap_waves` verifies executed offsets
//! against the same intervals.

use crate::event::Event;
use std::collections::HashMap;

/// The lifetime of one observed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferLife {
    /// Buffer name (final name, after any inplace reuse renames).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Tick of the alloc event.
    pub start: usize,
    /// Tick of the last tick the buffer was live, if it was freed;
    /// `None` means it survived to the end of the trace.
    pub end: Option<usize>,
    /// Whether this was a transient (single-tick decode buffer).
    pub transient: bool,
}

impl BufferLife {
    /// Inclusive end tick, treating never-freed buffers as live through
    /// `last_tick`.
    pub fn end_or(&self, last_tick: usize) -> usize {
        self.end.unwrap_or(last_tick).max(self.start)
    }
}

/// A malformed memory-event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccountantError {
    /// `Free` for a buffer with no live `Alloc`.
    FreeUnknown(String),
    /// `Free` size disagreed with the `Alloc` size.
    SizeMismatch {
        /// Buffer name.
        name: String,
        /// Size recorded at alloc.
        allocated: u64,
        /// Size claimed at free.
        freed: u64,
    },
    /// `Alloc` for a name that is already live.
    DoubleAlloc(String),
    /// `Reuse` whose source buffer is not live.
    ReuseUnknown(String),
    /// `Reuse` into a name that is already live.
    ReuseCollision(String),
}

impl std::fmt::Display for AccountantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccountantError::FreeUnknown(n) => write!(f, "free of unknown buffer {n}"),
            AccountantError::SizeMismatch { name, allocated, freed } => {
                write!(f, "{name}: allocated {allocated} bytes but freed {freed}")
            }
            AccountantError::DoubleAlloc(n) => write!(f, "double alloc of {n}"),
            AccountantError::ReuseUnknown(n) => write!(f, "reuse of unknown buffer {n}"),
            AccountantError::ReuseCollision(n) => write!(f, "reuse into live buffer {n}"),
        }
    }
}

impl std::error::Error for AccountantError {}

/// Streaming fold of memory events into footprint observations.
#[derive(Debug, Default)]
pub struct MemoryAccountant {
    lives: Vec<BufferLife>,
    /// Live buffer name -> index into `lives`.
    open: HashMap<String, usize>,
    live_bytes: u64,
    peak_bytes: u64,
    ticks: usize,
}

impl MemoryAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds every memory event of a stream (non-memory events are
    /// ignored).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found — a malformed stream means the
    /// executor's metering discipline is broken, which is exactly what the
    /// oracle tests exist to catch.
    pub fn fold_all(&mut self, events: &[Event]) -> Result<(), AccountantError> {
        for ev in events {
            self.fold(ev)?;
        }
        Ok(())
    }

    /// Folds one event.
    ///
    /// # Errors
    ///
    /// As for [`Self::fold_all`].
    pub fn fold(&mut self, ev: &Event) -> Result<(), AccountantError> {
        match ev {
            Event::Alloc { name, bytes } => {
                if self.open.contains_key(name) {
                    return Err(AccountantError::DoubleAlloc(name.clone()));
                }
                let t = self.ticks;
                self.ticks += 1;
                self.open.insert(name.clone(), self.lives.len());
                self.lives.push(BufferLife {
                    name: name.clone(),
                    bytes: *bytes,
                    start: t,
                    end: None,
                    transient: false,
                });
                self.live_bytes += bytes;
                self.peak_bytes = self.peak_bytes.max(self.live_bytes);
            }
            Event::Free { name, bytes } => {
                let idx = *self
                    .open
                    .get(name)
                    .ok_or_else(|| AccountantError::FreeUnknown(name.clone()))?;
                if self.lives[idx].bytes != *bytes {
                    return Err(AccountantError::SizeMismatch {
                        name: name.clone(),
                        allocated: self.lives[idx].bytes,
                        freed: *bytes,
                    });
                }
                self.open.remove(name);
                let t = self.ticks;
                self.ticks += 1;
                // Live through the tick before the free.
                self.lives[idx].end = Some((t - 1).max(self.lives[idx].start));
                self.live_bytes -= bytes;
            }
            Event::Reuse { from, into } => {
                let idx = self
                    .open
                    .remove(from)
                    .ok_or_else(|| AccountantError::ReuseUnknown(from.clone()))?;
                if self.open.contains_key(into) {
                    return Err(AccountantError::ReuseCollision(into.clone()));
                }
                self.lives[idx].name = into.clone();
                self.open.insert(into.clone(), idx);
            }
            Event::Transient { name, bytes } => {
                let t = self.ticks;
                self.ticks += 1;
                self.lives.push(BufferLife {
                    name: name.clone(),
                    bytes: *bytes,
                    start: t,
                    end: Some(t),
                    transient: true,
                });
                self.peak_bytes = self.peak_bytes.max(self.live_bytes + bytes);
            }
            Event::Span { .. }
            | Event::Encode { .. }
            | Event::Decode { .. }
            | Event::Transfer { .. }
            | Event::NetTransfer { .. } => {}
        }
        Ok(())
    }

    /// Observed peak of simultaneously-live bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Bytes still live (never freed) at the end of the stream.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of ticks on the logical timeline (= memory events folded,
    /// excluding renames).
    pub fn num_ticks(&self) -> usize {
        self.ticks
    }

    /// Every observed buffer lifetime, in alloc order.
    pub fn lives(&self) -> &[BufferLife] {
        &self.lives
    }

    /// Names of buffers never freed (e.g. the input stash, which the
    /// backward pass never revisits).
    pub fn leaked(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.open.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(name: &str, bytes: u64) -> Event {
        Event::Alloc { name: name.into(), bytes }
    }

    fn free(name: &str, bytes: u64) -> Event {
        Event::Free { name: name.into(), bytes }
    }

    #[test]
    fn peak_tracks_concurrent_live_bytes() {
        let mut a = MemoryAccountant::new();
        a.fold_all(&[alloc("x", 10), alloc("y", 5), free("x", 10), alloc("z", 3)]).unwrap();
        assert_eq!(a.peak_bytes(), 15);
        assert_eq!(a.live_bytes(), 8);
        assert_eq!(a.num_ticks(), 4);
        assert_eq!(a.leaked(), vec!["y", "z"]);
    }

    #[test]
    fn intervals_use_closed_tick_semantics() {
        let mut a = MemoryAccountant::new();
        // x: alloc tick 0, free tick 2 -> live [0, 1].
        // y: alloc tick 1, never freed -> end_or(last) = last tick.
        a.fold_all(&[alloc("x", 8), alloc("y", 4), free("x", 8)]).unwrap();
        let x = &a.lives()[0];
        assert_eq!((x.start, x.end), (0, Some(1)));
        let y = &a.lives()[1];
        assert_eq!((y.start, y.end), (1, None));
        assert_eq!(y.end_or(a.num_ticks() - 1), 2);
    }

    #[test]
    fn transient_bumps_peak_without_staying_live() {
        let mut a = MemoryAccountant::new();
        a.fold_all(&[
            alloc("x", 10),
            Event::Transient { name: "d".into(), bytes: 7 },
            alloc("y", 2),
        ])
        .unwrap();
        assert_eq!(a.peak_bytes(), 17);
        assert_eq!(a.live_bytes(), 12);
        let d = &a.lives()[1];
        assert!(d.transient);
        assert_eq!((d.start, d.end), (1, Some(1)));
    }

    #[test]
    fn reuse_renames_without_allocator_traffic() {
        let mut a = MemoryAccountant::new();
        a.fold_all(&[
            alloc("conv.y", 16),
            Event::Reuse { from: "conv.y".into(), into: "relu.y".into() },
            free("relu.y", 16),
        ])
        .unwrap();
        assert_eq!(a.peak_bytes(), 16);
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.lives()[0].name, "relu.y");
        // Rename consumed no tick: alloc tick 0, free tick 1.
        assert_eq!(a.num_ticks(), 2);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let mut a = MemoryAccountant::new();
        assert_eq!(a.fold(&free("ghost", 1)), Err(AccountantError::FreeUnknown("ghost".into())));
        a.fold(&alloc("x", 4)).unwrap();
        assert_eq!(a.fold(&alloc("x", 4)), Err(AccountantError::DoubleAlloc("x".into())));
        assert_eq!(
            a.fold(&free("x", 5)),
            Err(AccountantError::SizeMismatch { name: "x".into(), allocated: 4, freed: 5 })
        );
        assert_eq!(
            a.fold(&Event::Reuse { from: "nope".into(), into: "y".into() }),
            Err(AccountantError::ReuseUnknown("nope".into()))
        );
        a.fold(&alloc("y", 1)).unwrap();
        assert_eq!(
            a.fold(&Event::Reuse { from: "y".into(), into: "x".into() }),
            Err(AccountantError::ReuseCollision("x".into()))
        );
    }

    #[test]
    fn non_memory_events_are_ignored() {
        let mut a = MemoryAccountant::new();
        a.fold(&Event::Encode {
            name: "relu1".into(),
            codec: "ssdc".into(),
            raw_bytes: 100,
            encoded_bytes: 30,
        })
        .unwrap();
        assert_eq!(a.num_ticks(), 0);
        assert_eq!(a.peak_bytes(), 0);
    }
}
