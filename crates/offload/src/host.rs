//! Host-side "pinned" staging memory for swapped-out stashes.
//!
//! Real vDNN pins host pages so cudaMemcpyAsync can DMA them; here the
//! analogue is a set of slots whose capacity is fixed at plan time and
//! never reallocated during training — storing and loading a stash touches
//! no allocator, so the executor's zero-alloc steady state survives.
//!
//! The executed cDMA path stores *encoded* stashes instead: a
//! [`gist_encodings::Wire`] per node, carrying the SSDC/DPR payload the
//! transfer engine prices by its observed `wire_bytes`. Encoded stashes
//! are data-dependent in size, so they live beside the fixed dense slots
//! rather than inside them.

use gist_encodings::Wire;

/// Preallocated host slots, one per swapped node, sized from the plan.
#[derive(Debug)]
pub struct HostStore {
    slots: Vec<Vec<f32>>,
    wires: Vec<Option<Wire>>,
    pinned_bytes: u64,
}

impl HostStore {
    /// Allocates one zero-filled slot per node; `capacities[i]` is the
    /// element count of node `i`'s stash (0 = node is never swapped).
    pub fn new(capacities: &[usize]) -> Self {
        let pinned_bytes = capacities.iter().map(|&ne| ne as u64 * 4).sum();
        HostStore {
            slots: capacities.iter().map(|&ne| vec![0.0; ne]).collect(),
            wires: capacities.iter().map(|_| None).collect(),
            pinned_bytes,
        }
    }

    /// Copies a stash out to its host slot (swap-out).
    ///
    /// # Panics
    ///
    /// Panics if the node has no slot or the size disagrees with the plan.
    pub fn store(&mut self, node: usize, data: &[f32]) {
        self.slots[node].copy_from_slice(data);
    }

    /// Borrows a swapped-out stash (swap-in reads this back into a device
    /// buffer).
    pub fn load(&self, node: usize) -> &[f32] {
        &self.slots[node]
    }

    /// Stores an encoded stash in its node's wire slot (executed cDMA
    /// swap-out). The wire's element count must match the dense slot the
    /// plan sized, so a later dense [`Self::load`] cannot alias stale data.
    ///
    /// # Panics
    ///
    /// Panics if the node has no slot or the wire length disagrees with
    /// the plan.
    pub fn store_wire(&mut self, node: usize, wire: Wire) {
        assert_eq!(wire.len(), self.slots[node].len(), "wire length disagrees with plan");
        self.wires[node] = Some(wire);
    }

    /// Borrows a node's encoded stash (executed cDMA swap-in decodes it
    /// straight into the device buffer).
    ///
    /// # Panics
    ///
    /// Panics if no wire was stored for the node.
    pub fn load_wire(&self, node: usize) -> &Wire {
        self.wires[node].as_ref().expect("swap-in of a stash that never swapped out encoded")
    }

    /// Total bytes held pinned on the host.
    pub fn pinned_bytes(&self) -> u64 {
        self.pinned_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_and_loads_bit_exact() {
        let mut h = HostStore::new(&[0, 4, 0]);
        assert_eq!(h.pinned_bytes(), 16);
        let data = [1.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE / 2.0];
        h.store(1, &data);
        let back = h.load(1);
        assert_eq!(
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let mut h = HostStore::new(&[2]);
        h.store(0, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn stores_and_loads_encoded_wires_bit_exact() {
        use gist_encodings::TransferCodec;
        let data = [1.5f32, 0.0, -0.0, f32::NAN, 0.0, -3.25];
        let mut h = HostStore::new(&[0, data.len()]);
        h.store_wire(1, Wire::encode(TransferCodec::Ssdc, &data));
        let back = h.load_wire(1).decode();
        assert_eq!(
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic]
    fn wire_length_mismatch_panics() {
        use gist_encodings::TransferCodec;
        let mut h = HostStore::new(&[2]);
        h.store_wire(0, Wire::encode(TransferCodec::None, &[1.0, 2.0, 3.0]));
    }
}
