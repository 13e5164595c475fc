//! Multi-device striping: one [`BlockDevice`] over N inner devices.
//!
//! Striping is a plain device layer. It changes where blocks live, never
//! how many transfers an algorithm makes, so logical and physical I/O
//! counts and output bytes are identical at every width. Each inner device
//! can be faulted on its own, and the [`Disk`](crate::Disk) attributes a
//! quarantined block to its stripe device (`block % width`) for the health
//! map's clustering.

use crate::device::BlockDevice;
use crate::error::{ExtError, Result};

/// A [`BlockDevice`] that round-robins blocks across N inner devices.
///
/// Global block id `local * N + d` lives at local id `local` on inner device
/// `d`; allocation rotates over the devices, so a sequential extent's blocks
/// land on distinct devices.
/// Each inner device can independently be wrapped in a
/// [`FaultyDevice`](crate::FaultyDevice); put a
/// [`ChecksummedDevice`](crate::ChecksummedDevice) *outside* the stripe so
/// checksums are keyed by global id.
pub struct StripedDevice {
    inners: Vec<Box<dyn BlockDevice>>,
    block_size: usize,
    next_dev: usize,
    num_blocks: u64,
}

impl StripedDevice {
    /// Stripe over `inners` (at least one; all the same block size).
    pub fn new(inners: Vec<Box<dyn BlockDevice>>) -> Self {
        assert!(!inners.is_empty(), "striping needs at least one inner device");
        let block_size = inners[0].block_size();
        assert!(
            inners.iter().all(|d| d.block_size() == block_size),
            "striped inner devices must share a block size"
        );
        // Reopened inner devices may already hold blocks; the global count
        // must cover their highest mapped id (local id `nb-1` of device `d`
        // maps to `(nb-1) * n + d`), or a reattached stack would treat
        // preexisting blocks as out of bounds.
        let n = inners.len() as u64;
        let num_blocks = inners
            .iter()
            .enumerate()
            .filter(|(_, dev)| dev.num_blocks() > 0)
            .map(|(d, dev)| (dev.num_blocks() - 1) * n + d as u64 + 1)
            .max()
            .unwrap_or(0);
        Self { inners, block_size, next_dev: 0, num_blocks }
    }

    /// Number of inner devices.
    pub fn width(&self) -> usize {
        self.inners.len()
    }

    fn split(&self, id: u64) -> (usize, u64) {
        let n = self.inners.len() as u64;
        ((id % n) as usize, id / n)
    }

    /// Re-express an inner device's error in terms of the global block id.
    fn globalize(&self, e: ExtError, id: u64) -> ExtError {
        match e {
            ExtError::BadBlock { .. } => ExtError::BadBlock { block: id, total: self.num_blocks },
            ExtError::DoubleFree { .. } => ExtError::DoubleFree { block: id },
            other => other,
        }
    }
}

impl BlockDevice for StripedDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn allocate(&mut self) -> u64 {
        let n = self.inners.len() as u64;
        let d = self.next_dev;
        self.next_dev = (self.next_dev + 1) % self.inners.len();
        let local = self.inners[d].allocate();
        let id = local * n + d as u64;
        self.num_blocks = self.num_blocks.max(id + 1);
        id
    }

    fn free(&mut self, id: u64) -> Result<()> {
        let (d, local) = self.split(id);
        self.inners[d].free(local).map_err(|e| self.globalize(e, id))
    }

    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        let (d, local) = self.split(id);
        self.inners[d].read(local, buf).map_err(|e| self.globalize(e, id))
    }

    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        let (d, local) = self.split(id);
        self.inners[d].write(local, data).map_err(|e| self.globalize(e, id))
    }

    fn is_live(&self, id: u64) -> bool {
        let (d, local) = self.split(id);
        self.inners[d].is_live(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DiskBuilder;
    use crate::device::MemDevice;
    use crate::fault::{FaultKind, FaultPlan, FaultyDevice};

    fn mems(n: usize, bs: usize) -> Vec<Box<dyn BlockDevice>> {
        (0..n).map(|_| Box::new(MemDevice::new(bs)) as Box<dyn BlockDevice>).collect()
    }

    #[test]
    fn allocation_round_robins_and_ids_stay_dense() {
        let mut dev = StripedDevice::new(mems(3, 64));
        let ids: Vec<u64> = (0..7).map(|_| dev.allocate()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6], "fresh allocation yields dense global ids");
        assert_eq!(dev.num_blocks(), 7);
        assert_eq!(dev.width(), 3);
    }

    #[test]
    fn striped_blocks_roundtrip_and_recycle() {
        let disk = DiskBuilder::new(64).stripe(4).build().unwrap().disk;
        assert_eq!(disk.stripe_width(), 4);
        let ids: Vec<u64> = (0..8).map(|_| disk.alloc_block()).collect();
        for (i, &id) in ids.iter().enumerate() {
            disk.write_block(id, &[i as u8 + 1; 64], crate::IoCat::RunWrite).unwrap();
        }
        let mut buf = [0u8; 64];
        for (i, &id) in ids.iter().enumerate() {
            disk.read_block(id, &mut buf, crate::IoCat::RunRead).unwrap();
            assert_eq!(buf, [i as u8 + 1; 64]);
        }
        disk.free_block(ids[2]).unwrap();
        assert!(matches!(
            disk.free_block(ids[2]),
            Err(ExtError::DoubleFree { block }) if block == ids[2]
        ));
    }

    #[test]
    fn inner_devices_fault_independently() {
        // Device 0's first write always fails; device 1 is healthy. Blocks
        // alternate devices, so the write to the even block fails and the
        // write to the odd block succeeds.
        let plan = FaultPlan::new(5)
            .at_write(0, FaultKind::TransientError)
            .at_write(1, FaultKind::TransientError);
        let faulty0 = FaultyDevice::new(MemDevice::new(64), plan);
        let inners: Vec<Box<dyn BlockDevice>> =
            vec![Box::new(faulty0), Box::new(MemDevice::new(64))];
        let mut dev = StripedDevice::new(inners);
        let a = dev.allocate(); // device 0
        let b = dev.allocate(); // device 1
        assert!(dev.write(a, &[1; 64]).is_err(), "device 0 is scripted to fail");
        assert!(dev.write(b, &[2; 64]).is_ok(), "device 1 is unaffected");
        let mut buf = [0u8; 64];
        dev.read(b, &mut buf).unwrap();
        assert_eq!(buf, [2; 64]);
    }
}
