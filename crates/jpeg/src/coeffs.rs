//! Quantized DCT coefficient storage.
//!
//! Lepton's working representation of a JPEG scan: one plane of 8x8
//! blocks per color component. Coefficients are stored in **raster order
//! within each block** (index `v*8+u`, `u` horizontal frequency) and
//! blocks in raster order within the plane. DC values are stored as
//! *absolute* values — the JPEG DC delta chain is applied by the scan
//! codec using handover state, which is what lets chunks and thread
//! segments decode independently (paper §3.4).

/// One 8x8 block of quantized coefficients, raster order.
pub type CoefBlock = [i16; 64];

/// A single component's coefficient plane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plane {
    /// Width in blocks.
    pub blocks_w: usize,
    /// Height in blocks.
    pub blocks_h: usize,
    data: Vec<i16>,
}

impl Plane {
    /// Allocate an all-zero plane.
    pub fn new(blocks_w: usize, blocks_h: usize) -> Self {
        Plane {
            blocks_w,
            blocks_h,
            data: vec![0; blocks_w * blocks_h * 64],
        }
    }

    /// Borrow the block at block coordinates (`bx`, `by`).
    #[inline]
    pub fn block(&self, bx: usize, by: usize) -> &CoefBlock {
        let off = (by * self.blocks_w + bx) * 64;
        self.data[off..off + 64]
            .try_into()
            .expect("64 coefficients")
    }

    /// Mutably borrow the block at (`bx`, `by`).
    #[inline]
    pub fn block_mut(&mut self, bx: usize, by: usize) -> &mut CoefBlock {
        let off = (by * self.blocks_w + bx) * 64;
        (&mut self.data[off..off + 64])
            .try_into()
            .expect("64 coefficients")
    }

    /// Total number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks_w * self.blocks_h
    }

    /// Raw coefficient slice (blocks in raster order).
    pub fn raw(&self) -> &[i16] {
        &self.data
    }

    /// Mutable raw coefficient slice.
    pub fn raw_mut(&mut self) -> &mut [i16] {
        &mut self.data
    }
}

/// All components' coefficient planes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoefPlanes {
    /// One plane per frame component, in frame order.
    pub planes: Vec<Plane>,
}

impl CoefPlanes {
    /// Allocate zeroed planes sized for the given frame.
    pub fn for_frame(frame: &crate::types::FrameInfo) -> Self {
        CoefPlanes {
            planes: frame
                .components
                .iter()
                .map(|c| Plane::new(c.blocks_w, c.blocks_h))
                .collect(),
        }
    }

    /// Total bytes of coefficient storage (for memory accounting).
    pub fn byte_size(&self) -> usize {
        self.planes.iter().map(|p| p.raw().len() * 2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_addressing() {
        let mut p = Plane::new(3, 2);
        p.block_mut(2, 1)[5] = 42;
        p.block_mut(0, 0)[0] = -7;
        assert_eq!(p.block(2, 1)[5], 42);
        assert_eq!(p.block(0, 0)[0], -7);
        assert_eq!(p.block(1, 0)[5], 0);
        assert_eq!(p.block_count(), 6);
    }

    #[test]
    fn raw_layout_is_block_major() {
        let mut p = Plane::new(2, 1);
        p.block_mut(1, 0)[0] = 9;
        assert_eq!(p.raw()[64], 9);
    }
}
