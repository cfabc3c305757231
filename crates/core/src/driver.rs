//! The segment walk: one MCU iteration used identically by the
//! arithmetic encoder and decoder.
//!
//! Lepton's compression ratio depends on encode and decode agreeing
//! *exactly* on which neighbor blocks are visible in each context (only
//! blocks coded earlier in the *same thread segment* — §3.4: each
//! thread's model adapts independently). Implementing the walk once and
//! parameterizing over "where blocks come from" makes that agreement
//! structural instead of a discipline.

use lepton_jpeg::parser::ParsedJpeg;
use lepton_jpeg::Component;
use lepton_model::context::{BlockNeighbors, CodedBlock};

/// One ring entry: a coded block, and which walk and plane row it was
/// coded for.
struct RingSlot {
    /// `walk << 32 | (1 + plane row)`; 0 = never filled. A slot whose
    /// tag is not the one being asked for is stale — left over from
    /// `depth` rows earlier, from columns a segment that starts mid-row
    /// never coded, or from an earlier walk through the same arena —
    /// and reads as "no neighbor".
    tag: u64,
    block: CodedBlock,
}

/// The neighbour rings' storage. It belongs to an engine scratch arena
/// (§5.1: reset, never reallocated): a walk takes the slots it needs,
/// growing the arena only for a wider frame than any before, and clears
/// nothing — each walk tags its slots with its own number, so whatever
/// an earlier walk left behind is stale by construction.
#[derive(Default)]
pub struct RingArena {
    slots: Vec<RingSlot>,
    /// Number of the latest walk (from 1).
    walk: u32,
}

impl RingArena {
    /// One ring per scan component of `parsed`, for a new walk.
    fn rings(&mut self, parsed: &ParsedJpeg) -> Vec<RowRing<'_>> {
        let shapes = parsed.scan.components.iter().map(|sc| {
            let comp = &parsed.frame.components[sc.comp_index];
            (comp.v as usize + 1, comp.blocks_w)
        });
        let total = shapes.clone().map(|(depth, w)| depth * w).sum();
        if self.slots.len() < total {
            self.slots.resize_with(total, || RingSlot {
                tag: 0,
                block: CodedBlock::ZERO,
            });
        }
        self.walk = self.walk.checked_add(1).unwrap_or_else(|| {
            // Walk numbers are about to repeat: forget every old one.
            self.slots.iter_mut().for_each(|s| s.tag = 0);
            1
        });
        let tag_base = (self.walk as u64) << 32;
        let mut rest = &mut self.slots[..];
        shapes
            .map(|(depth, blocks_w)| {
                let (slots, tail) = std::mem::take(&mut rest).split_at_mut(depth * blocks_w);
                rest = tail;
                RowRing {
                    depth,
                    blocks_w,
                    tag_base,
                    slots,
                }
            })
            .collect()
    }
}

/// Ring buffer of the last `v+1` block rows of one component. The model
/// fills slots in place (see [`BlockOp::block`]); nothing is moved or
/// cleared per block or per row.
struct RowRing<'a> {
    depth: usize,
    blocks_w: usize,
    /// This walk's number, in tag position.
    tag_base: u64,
    /// `depth` rows of `blocks_w` slots.
    slots: &'a mut [RingSlot],
}

/// The block in `slot`, if it is the one coded for `tag`.
fn tagged(slot: &RingSlot, tag: u64) -> Option<&CodedBlock> {
    (slot.tag == tag).then_some(&slot.block)
}

impl RowRing<'_> {
    fn tag(&self, gy: usize) -> u64 {
        self.tag_base | (gy as u64 + 1)
    }

    /// The slot to fill for block (`bx`, `gy`), and its visible
    /// `[above, left, above_left]` neighbors.
    fn open(&mut self, bx: usize, gy: usize) -> (&mut RingSlot, [Option<&CodedBlock>; 3]) {
        let w = self.blocks_w;
        let row_tag = self.tag(gy);
        // `depth >= 2`, so the two rows are distinct ring rows.
        let (cur, above) = (gy % self.depth, (gy + self.depth - 1) % self.depth);
        let (cur, above): (&mut [RingSlot], &[RingSlot]) = if cur < above {
            let (lo, hi) = self.slots.split_at_mut(above * w);
            (&mut lo[cur * w..][..w], &hi[..w])
        } else {
            let (lo, hi) = self.slots.split_at_mut(cur * w);
            (&mut hi[..w], &lo[above * w..][..w])
        };
        let (before, rest) = cur.split_at_mut(bx);
        let left = before.last().and_then(|s| tagged(s, row_tag));
        // For row 0 this is a tag no slot carries (rows count from 1).
        let above_tag = row_tag - 1;
        let up = tagged(&above[bx], above_tag);
        let up_left = bx.checked_sub(1).and_then(|x| tagged(&above[x], above_tag));
        (&mut rest[0], [up, left, up_left])
    }
}

/// Bytes of the ring `walk_segment` keeps for one component.
pub(crate) fn component_ring_bytes(comp: &Component) -> usize {
    (comp.v as usize + 1) * comp.blocks_w * std::mem::size_of::<RingSlot>()
}

/// Bytes one segment's row rings occupy for `parsed`, as charged to the
/// job's [`crate::security::JobMeter`]: `walk_segment` takes one ring
/// per scan component from its arena, and this is exactly what a fresh
/// arena allocates for them.
pub(crate) fn ring_bytes(parsed: &ParsedJpeg) -> usize {
    parsed
        .scan
        .components
        .iter()
        .map(|sc| component_ring_bytes(&parsed.frame.components[sc.comp_index]))
        .sum()
}

/// Per-block operation: code (decode or encode) the block at the given
/// position. `class` is 0 for luma, 1 for chroma.
pub trait BlockOp {
    /// The error produced on failure.
    type Error;

    /// Handle the block for scan component `scan_idx` at plane position
    /// (`bx`, `gy`), with `nbr` describing segment-local neighbors, and
    /// leave in `out` — the block's ring slot — what later blocks will
    /// consult about it (the model's `encode_block` / `decode_block`
    /// write it in full).
    fn block(
        &mut self,
        scan_idx: usize,
        class: usize,
        bx: usize,
        gy: usize,
        nbr: &BlockNeighbors<'_>,
        out: &mut CodedBlock,
    ) -> Result<(), Self::Error>;

    /// Called at the start of each MCU (restart handling hooks here).
    fn mcu_start(&mut self, mcu: u32) -> Result<(), Self::Error> {
        let _ = mcu;
        Ok(())
    }

    /// Called after each MCU completes (streaming flush hooks here).
    fn mcu_end(&mut self, mcu: u32) -> Result<(), Self::Error> {
        let _ = mcu;
        Ok(())
    }
}

/// Walk MCUs `[start_mcu, end_mcu)` of the parsed frame, invoking `op`
/// per block with segment-local neighbor context kept in `arena`.
pub fn walk_segment<O: BlockOp>(
    parsed: &ParsedJpeg,
    start_mcu: u32,
    end_mcu: u32,
    arena: &mut RingArena,
    op: &mut O,
) -> Result<(), O::Error> {
    let frame = &parsed.frame;
    let mcus_x = frame.mcus_x as u32;

    let mut rings = arena.rings(parsed);

    let quants: Vec<[u16; 64]> = parsed
        .scan
        .components
        .iter()
        .map(|sc| {
            *parsed.quant[frame.components[sc.comp_index].tq as usize]
                .as_ref()
                .expect("validated at parse time")
        })
        .collect();

    for mcu in start_mcu..end_mcu {
        op.mcu_start(mcu)?;
        let mx = (mcu % mcus_x) as usize;
        let my = (mcu / mcus_x) as usize;
        for (si, sc) in parsed.scan.components.iter().enumerate() {
            let comp = &frame.components[sc.comp_index];
            let class = if sc.comp_index == 0 { 0 } else { 1 };
            let (ch, cv) = (comp.h as usize, comp.v as usize);
            for by in 0..cv {
                for bx_in in 0..ch {
                    let gx = mx * ch + bx_in;
                    let gy = my * cv + by;
                    let row_tag = rings[si].tag(gy);
                    let (slot, [above, left, above_left]) = rings[si].open(gx, gy);
                    let nbr = BlockNeighbors {
                        above,
                        left,
                        above_left,
                        quant: &quants[si],
                    };
                    op.block(si, class, gx, gy, &nbr, &mut slot.block)?;
                    slot.tag = row_tag;
                }
            }
        }
        op.mcu_end(mcu)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_jpeg::encoder::{encode_jpeg, EncodeOptions, Image, PixelData, Subsampling};
    use std::collections::HashMap;

    /// Visit number (from 1) of each neighbor a block was handed.
    #[derive(Debug, PartialEq)]
    struct Visit {
        at: (usize, usize, usize),
        above: Option<i32>,
        left: Option<i32>,
        above_left: Option<i32>,
    }

    /// An op that numbers the blocks it visits (in `deq[0]`) and records
    /// which earlier visits it was shown as neighbors.
    #[derive(Default)]
    struct Recorder {
        visits: Vec<Visit>,
    }

    impl BlockOp for Recorder {
        type Error = ();
        fn block(
            &mut self,
            scan_idx: usize,
            _class: usize,
            bx: usize,
            gy: usize,
            nbr: &BlockNeighbors<'_>,
            out: &mut CodedBlock,
        ) -> Result<(), ()> {
            let number = |n: Option<&CodedBlock>| n.map(|b| b.deq[0]);
            self.visits.push(Visit {
                at: (scan_idx, bx, gy),
                above: number(nbr.above),
                left: number(nbr.left),
                above_left: number(nbr.above_left),
            });
            out.deq[0] = self.visits.len() as i32;
            Ok(())
        }
    }

    fn tiny_parsed(w: usize, h: usize, data: PixelData) -> ParsedJpeg {
        // Reuse the pixel encoder to get a consistent ParsedJpeg.
        let img = Image {
            width: w,
            height: h,
            data,
        };
        let opts = EncodeOptions {
            subsampling: Subsampling::S420,
            ..Default::default()
        };
        lepton_jpeg::parse(&encode_jpeg(&img, &opts).unwrap()).unwrap()
    }

    fn gray(w: usize, h: usize) -> ParsedJpeg {
        tiny_parsed(w, h, PixelData::Gray(vec![128; w * h]))
    }

    #[test]
    fn neighbor_visibility_from_segment_start() {
        let parsed = gray(32, 24); // 4x3 MCUs
        let mut op = Recorder::default();
        // Segment starting mid-row at MCU 5 (= row 1, col 1).
        walk_segment(&parsed, 5, 12, &mut RingArena::default(), &mut op).unwrap();
        // First block (bx=1, gy=1): no neighbors visible (above is in
        // another segment's rows, left was coded by a previous segment).
        let first = &op.visits[0];
        assert_eq!(first.at, (0, 1, 1));
        assert!(first.above.is_none() && first.left.is_none());
        // Next block (bx=2, gy=1): left visible, above not.
        let second = &op.visits[1];
        assert!(second.above.is_none() && second.left == Some(1));
        // A block in the following row with same bx: above now visible.
        let find = |bx, gy| op.visits.iter().find(|v| v.at == (0, bx, gy)).unwrap();
        assert_eq!(find(1, 2).above, Some(1), "above visible within segment");
        // Row-2 col-0 block: no left, and its above was not in the segment.
        assert!(find(0, 2).left.is_none() && find(0, 2).above.is_none());
    }

    #[test]
    fn full_walk_covers_all_blocks() {
        let parsed = gray(32, 24);
        let mut op = Recorder::default();
        let mcus = parsed.frame.mcu_count() as u32;
        walk_segment(&parsed, 0, mcus, &mut RingArena::default(), &mut op).unwrap();
        assert_eq!(op.visits.len(), parsed.frame.mcu_count());
        // Interior blocks see all three neighbors.
        let interior = op.visits.iter().find(|v| v.at == (0, 2, 2)).unwrap();
        assert!(interior.above.is_some() && interior.left.is_some());
        assert!(interior.above_left.is_some());
    }

    /// The ring hands the model exactly the blocks the definition names
    /// — the above / left / above-left positions, iff coded earlier in
    /// the same segment — for every segment of a 4:2:0 frame (luma ring
    /// three rows deep, chroma two), including segments that start and
    /// end mid-row and rows that wrap the ring many times. One arena
    /// serves every walk (and a narrower frame first), so each walk
    /// finds the slots full of earlier walks' blocks.
    #[test]
    fn ring_neighbors_are_the_blocks_coded_earlier_in_the_segment() {
        let mut arena = RingArena::default();
        walk_segment(&gray(32, 24), 0, 12, &mut arena, &mut Recorder::default()).unwrap();
        let (w, h) = (72, 88); // 5x6 MCUs of 16x16, partial at both edges
        let parsed = tiny_parsed(w, h, PixelData::Rgb(vec![90; w * h * 3]));
        let mcus = parsed.frame.mcu_count() as u32;
        assert_eq!(mcus, 30);
        for (start, end) in [(0, mcus), (0, 7), (7, 19), (13, 14), (19, mcus), (4, 6)] {
            let mut op = Recorder::default();
            walk_segment(&parsed, start, end, &mut arena, &mut op).unwrap();
            let mut seen: HashMap<(usize, usize, usize), i32> = HashMap::new();
            for (i, v) in op.visits.iter().enumerate() {
                let (si, bx, gy) = v.at;
                let at = |dx: usize, dy: usize| {
                    let (x, y) = (bx.checked_sub(dx)?, gy.checked_sub(dy)?);
                    seen.get(&(si, x, y)).copied()
                };
                let want = Visit {
                    at: v.at,
                    above: at(0, 1),
                    left: at(1, 0),
                    above_left: at(1, 1),
                };
                assert_eq!(*v, want, "segment [{start}, {end})");
                seen.insert(v.at, i as i32 + 1);
            }
            assert_eq!(seen.len(), (end - start) as usize * 6, "each block once");
        }
    }

    /// `ring_bytes` is what a fresh arena really allocates for a walk.
    #[test]
    fn ring_bytes_is_the_allocation() {
        let parsed = tiny_parsed(72, 88, PixelData::Rgb(vec![90; 72 * 88 * 3]));
        let mut arena = RingArena::default();
        walk_segment(&parsed, 0, 1, &mut arena, &mut Recorder::default()).unwrap();
        assert_eq!(
            ring_bytes(&parsed),
            arena.slots.capacity() * std::mem::size_of::<RingSlot>()
        );
    }
}
