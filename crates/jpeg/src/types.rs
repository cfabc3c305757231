//! Frame/scan structures and the zigzag ordering tables.

/// Zigzag scan order: `ZIGZAG[k]` is the raster index (row*8+col) of the
/// k-th coefficient in zigzag order (ITU-T T.81 Figure 5).
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Inverse zigzag: `ZIGZAG_INV[raster] = zigzag position`.
pub const ZIGZAG_INV: [usize; 64] = {
    let mut inv = [0usize; 64];
    let mut k = 0;
    while k < 64 {
        inv[ZIGZAG[k]] = k;
        k += 1;
    }
    inv
};

/// One color component of a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// Component identifier byte from SOF (e.g. 1=Y, 2=Cb, 3=Cr).
    pub id: u8,
    /// Horizontal sampling factor (1..=4 per spec; we support 1..=2).
    pub h: u8,
    /// Vertical sampling factor.
    pub v: u8,
    /// Quantization table selector (0..=3).
    pub tq: u8,
    /// Width of this component's coefficient plane in blocks, padded to
    /// a whole number of MCUs for interleaved scans.
    pub blocks_w: usize,
    /// Height in blocks, padded likewise.
    pub blocks_h: usize,
}

/// Frame header information (from SOF0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// Sample precision in bits (only 8 supported).
    pub precision: u8,
    /// Image width in pixels.
    pub width: u16,
    /// Image height in pixels.
    pub height: u16,
    /// Components in frame order.
    pub components: Vec<Component>,
    /// MCU grid width (number of MCUs per row).
    pub mcus_x: usize,
    /// MCU grid height.
    pub mcus_y: usize,
    /// Maximum horizontal sampling factor across components.
    pub hmax: u8,
    /// Maximum vertical sampling factor.
    pub vmax: u8,
}

impl FrameInfo {
    /// Total number of MCUs in the scan.
    pub fn mcu_count(&self) -> usize {
        self.mcus_x * self.mcus_y
    }

    /// Number of 8x8 blocks contributed to each MCU by component `c`.
    pub fn blocks_per_mcu(&self, c: usize) -> usize {
        let comp = &self.components[c];
        comp.h as usize * comp.v as usize
    }
}

/// One component's entry in the scan header (SOS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanComponent {
    /// Index into `FrameInfo::components`.
    pub comp_index: usize,
    /// DC Huffman table selector.
    pub dc_table: u8,
    /// AC Huffman table selector.
    pub ac_table: u8,
}

/// Scan header information (from SOS).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanInfo {
    /// Components participating in this scan, in scan order.
    pub components: Vec<ScanComponent>,
}

impl ScanInfo {
    /// True when the scan interleaves several components into MCUs.
    pub fn interleaved(&self) -> bool {
        self.components.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_permutation() {
        let mut seen = [false; 64];
        for &z in &ZIGZAG {
            assert!(!seen[z]);
            seen[z] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_inverse() {
        for k in 0..64 {
            assert_eq!(ZIGZAG_INV[ZIGZAG[k]], k);
        }
    }

    #[test]
    fn zigzag_known_entries() {
        assert_eq!(ZIGZAG[0], 0);
        assert_eq!(ZIGZAG[1], 1); // (0,1)
        assert_eq!(ZIGZAG[2], 8); // (1,0)
        assert_eq!(ZIGZAG[63], 63);
        // Zigzag index 35 is raster 56 = (7,0) per T.81; index 42 is the
        // tail of the column-0 descent.
        assert_eq!(ZIGZAG[35], 56);
        assert_eq!(ZIGZAG[14], 4);
    }

    #[test]
    fn blocks_per_mcu_420() {
        let frame = FrameInfo {
            precision: 8,
            width: 64,
            height: 64,
            components: vec![
                Component {
                    id: 1,
                    h: 2,
                    v: 2,
                    tq: 0,
                    blocks_w: 8,
                    blocks_h: 8,
                },
                Component {
                    id: 2,
                    h: 1,
                    v: 1,
                    tq: 1,
                    blocks_w: 4,
                    blocks_h: 4,
                },
                Component {
                    id: 3,
                    h: 1,
                    v: 1,
                    tq: 1,
                    blocks_w: 4,
                    blocks_h: 4,
                },
            ],
            mcus_x: 4,
            mcus_y: 4,
            hmax: 2,
            vmax: 2,
        };
        assert_eq!(frame.blocks_per_mcu(0), 4);
        assert_eq!(frame.blocks_per_mcu(1), 1);
        assert_eq!(frame.mcu_count(), 16);
    }
}
