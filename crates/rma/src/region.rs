//! RMA-registered memory: buffers and windows.
//!
//! A backend owns **buffers** (its actual memory: the index region and the
//! data region pool) and exposes **windows** over them — the unit of RMA
//! registration. This split models the paper's §4.1 memory machinery
//! directly:
//!
//! * index reshaping registers a *new* window over a *new* buffer and
//!   **revokes** the old one; in-flight client reads then fail with
//!   [`RmaStatus::WindowRevoked`] and re-resolve via RPC;
//! * data-region growth registers a *second, larger, overlapping* window
//!   over the same buffer and advertises it; clients converge to the new
//!   window while the old one keeps serving (no disruption);
//! * every window carries a **generation** so a client acting on stale
//!   layout metadata gets [`RmaStatus::BadGeneration`] instead of garbage.

use bytes::Bytes;

use crate::codec::RmaStatus;

/// Identifies a backend-local memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

/// Identifies an RMA-registered window over a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u32);

#[derive(Debug)]
struct Buffer {
    data: Vec<u8>,
}

#[derive(Debug)]
struct Window {
    buffer: BufferId,
    base: u64,
    len: u64,
    generation: u32,
    revoked: bool,
}

/// Registry of buffers and windows for one backend.
#[derive(Debug, Default)]
pub struct RegionTable {
    buffers: Vec<Buffer>,
    windows: Vec<Window>,
    next_generation: u32,
}

impl RegionTable {
    /// Empty table.
    pub fn new() -> RegionTable {
        RegionTable::default()
    }

    /// Allocate a zeroed buffer of `len` bytes ("populated" memory, i.e.
    /// resident DRAM in the paper's terms).
    pub fn alloc_buffer(&mut self, len: usize) -> BufferId {
        self.buffers.push(Buffer { data: vec![0; len] });
        BufferId(self.buffers.len() as u32 - 1)
    }

    /// Grow a buffer to `new_len` (models populating more of the reserved
    /// virtual range via `mmap`). Shrinking is not supported at runtime —
    /// the paper downsizes only via non-disruptive restart.
    pub fn grow_buffer(&mut self, id: BufferId, new_len: usize) {
        let buf = &mut self.buffers[id.0 as usize];
        assert!(
            new_len >= buf.data.len(),
            "data regions only grow at runtime"
        );
        buf.data.resize(new_len, 0);
    }

    /// Replace a buffer's contents with a fresh zeroed allocation of
    /// `new_len` (restart-time downsizing).
    pub fn realloc_buffer(&mut self, id: BufferId, new_len: usize) {
        self.buffers[id.0 as usize].data = vec![0; new_len];
    }

    /// Total resident bytes across all buffers (Fig. 3 accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.buffers.iter().map(|b| b.data.len() as u64).sum()
    }

    /// Write bytes into a buffer. Panics on out-of-bounds (backend bug).
    pub fn write(&mut self, id: BufferId, offset: usize, bytes: &[u8]) {
        let buf = &mut self.buffers[id.0 as usize];
        buf.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Read bytes directly from a buffer (backend-local access, no RMA
    /// semantics).
    pub fn read_buffer(&self, id: BufferId, offset: usize, len: usize) -> &[u8] {
        &self.buffers[id.0 as usize].data[offset..offset + len]
    }

    /// Register an RMA window over `[base, base+len)` of a buffer. Returns
    /// the window id; its generation is unique within this table.
    pub fn register_window(&mut self, buffer: BufferId, base: u64, len: u64) -> WindowId {
        let gen = self.next_generation;
        self.next_generation += 1;
        self.windows.push(Window {
            buffer,
            base,
            len,
            generation: gen,
            revoked: false,
        });
        WindowId(self.windows.len() as u32 - 1)
    }

    /// Revoke remote access to a window. Subsequent reads fail with
    /// [`RmaStatus::WindowRevoked`].
    pub fn revoke_window(&mut self, id: WindowId) {
        self.windows[id.0 as usize].revoked = true;
    }

    /// Generation of a window (advertised to clients at connection time).
    pub fn window_generation(&self, id: WindowId) -> u32 {
        self.windows[id.0 as usize].generation
    }

    /// Whether a window is currently serving.
    pub fn window_active(&self, id: WindowId) -> bool {
        !self.windows[id.0 as usize].revoked
    }

    /// Perform an RMA read against a window with the client's generation
    /// expectation. This is the NIC's-eye view of memory: it snapshots
    /// whatever bytes are there *right now*, including intermediate states
    /// of in-progress mutations (torn reads).
    pub fn read_window(
        &self,
        id: WindowId,
        generation: u32,
        offset: u64,
        len: u32,
    ) -> Result<Bytes, RmaStatus> {
        self.read_window_slice(id, generation, offset, len)
            .map(Bytes::copy_from_slice)
    }

    /// Borrowed-slice variant of [`RegionTable::read_window`]: the server's
    /// copy-free path. The slice aliases live backend memory, so callers
    /// must consume it (e.g. encode it into a response frame) before any
    /// mutation of this table.
    pub fn read_window_slice(
        &self,
        id: WindowId,
        generation: u32,
        offset: u64,
        len: u32,
    ) -> Result<&[u8], RmaStatus> {
        let Some(w) = self.windows.get(id.0 as usize) else {
            return Err(RmaStatus::WindowRevoked);
        };
        if w.revoked {
            return Err(RmaStatus::WindowRevoked);
        }
        if w.generation != generation {
            return Err(RmaStatus::BadGeneration);
        }
        let end = offset
            .checked_add(len as u64)
            .ok_or(RmaStatus::OutOfBounds)?;
        if end > w.len {
            return Err(RmaStatus::OutOfBounds);
        }
        let buf = &self.buffers[w.buffer.0 as usize];
        let start = (w.base + offset) as usize;
        let stop = (w.base + end) as usize;
        if stop > buf.data.len() {
            // Window extends over reserved-but-unpopulated address space.
            return Err(RmaStatus::OutOfBounds);
        }
        Ok(&buf.data[start..stop])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_window() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(1024);
        let w = t.register_window(b, 0, 1024);
        t.write(b, 100, b"hello");
        let gen = t.window_generation(w);
        let got = t.read_window(w, gen, 100, 5).unwrap();
        assert_eq!(&got[..], b"hello");
    }

    #[test]
    fn revoked_window_fails() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        let w = t.register_window(b, 0, 64);
        let gen = t.window_generation(w);
        t.revoke_window(w);
        assert_eq!(t.read_window(w, gen, 0, 8), Err(RmaStatus::WindowRevoked));
        assert!(!t.window_active(w));
    }

    #[test]
    fn stale_generation_fails() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        let w = t.register_window(b, 0, 64);
        let gen = t.window_generation(w);
        assert_eq!(
            t.read_window(w, gen + 1, 0, 8),
            Err(RmaStatus::BadGeneration)
        );
    }

    #[test]
    fn bounds_checked() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        let w = t.register_window(b, 0, 64);
        let gen = t.window_generation(w);
        assert_eq!(t.read_window(w, gen, 60, 8), Err(RmaStatus::OutOfBounds));
        assert_eq!(
            t.read_window(w, gen, u64::MAX, 8),
            Err(RmaStatus::OutOfBounds)
        );
        assert!(t.read_window(w, gen, 56, 8).is_ok());
    }

    #[test]
    fn overlapping_windows_same_buffer() {
        // The data-region growth pattern: a second, larger window over the
        // same buffer; both serve until the first is revoked.
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(128);
        let w1 = t.register_window(b, 0, 128);
        t.grow_buffer(b, 256);
        let w2 = t.register_window(b, 0, 256);
        t.write(b, 200, b"xyz");
        let g1 = t.window_generation(w1);
        let g2 = t.window_generation(w2);
        assert_ne!(g1, g2);
        // Old window still serves its range.
        assert!(t.read_window(w1, g1, 0, 64).is_ok());
        // Old window cannot see the grown range.
        assert_eq!(t.read_window(w1, g1, 120, 32), Err(RmaStatus::OutOfBounds));
        // New window covers everything.
        assert_eq!(&t.read_window(w2, g2, 200, 3).unwrap()[..], b"xyz");
    }

    #[test]
    fn window_over_unpopulated_range_fails_until_grown() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(64);
        // Register the *maximum possible* window up front (the mmap
        // PROT_NONE reservation), populate lazily.
        let w = t.register_window(b, 0, 1024);
        let gen = t.window_generation(w);
        assert_eq!(t.read_window(w, gen, 512, 8), Err(RmaStatus::OutOfBounds));
        t.grow_buffer(b, 1024);
        assert!(t.read_window(w, gen, 512, 8).is_ok());
    }

    #[test]
    fn resident_bytes_tracks_growth() {
        let mut t = RegionTable::new();
        let a = t.alloc_buffer(100);
        let _b = t.alloc_buffer(50);
        assert_eq!(t.resident_bytes(), 150);
        t.grow_buffer(a, 300);
        assert_eq!(t.resident_bytes(), 350);
        t.realloc_buffer(a, 10);
        assert_eq!(t.resident_bytes(), 60);
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn grow_rejects_shrink() {
        let mut t = RegionTable::new();
        let b = t.alloc_buffer(100);
        t.grow_buffer(b, 50);
    }
}
